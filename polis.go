// Package polis is a from-scratch reproduction of "Synthesis of
// Software Programs for Embedded Control Applications" (Balarin,
// Chiodo, Giusto, Hsieh, Jurecska, Lavagno, Sangiovanni-Vincentelli,
// Sentovich, Suzuki — DAC 1995 / IEEE TCAD 18(6), 1999): the POLIS
// software-synthesis flow from networks of Codesign Finite State
// Machines (CFSMs) to optimized embedded C and object code, with
// BDD-based s-graph construction, dynamic variable reordering, cost
// and performance estimation, and automatic RTOS generation.
//
// The top-level package offers the one-call flow a downstream user
// wants; the building blocks live in the internal packages and are
// re-exported through small aliases here:
//
//	spec := `module blink: input tick; output led; ...`
//	art, err := polis.SynthesizeSource(spec, polis.Options{})
//	fmt.Println(art.C)          // generated C
//	fmt.Println(art.Estimate)   // size/timing estimate
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reproduced tables and figures.
package polis

import (
	"context"

	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/esterel"
	"polis/internal/pipeline"
	"polis/internal/rtos"
	"polis/internal/vm"
)

// Options selects the synthesis configuration; see pipeline.Options.
type Options = pipeline.Options

// Artifacts bundles everything synthesis produces for one CFSM; see
// pipeline.Artifact.
type Artifacts = pipeline.Artifact

// Synthesize runs the complete per-CFSM flow of Section III: reactive
// function extraction, BDD sifting, s-graph construction (Theorem 1),
// C and object-code generation, and cost/performance estimation. It is
// the single-module, untraced form of SynthesizeNetwork; both share
// the staged implementation in internal/pipeline.
func Synthesize(m *cfsm.CFSM, opt Options) (*Artifacts, error) {
	return pipeline.SynthesizeModule(m, opt, nil)
}

// SynthesizeNetwork synthesizes every machine of the network through
// the staged, concurrent pipeline of internal/pipeline: modules are
// compiled in parallel on cfg.Jobs workers (each with its own BDD
// manager), consulting cfg.Cache for unchanged modules and reporting
// per-stage timings and cache counters to cfg.Trace. Artifacts are
// returned in the network's machine order regardless of completion
// order, so results are deterministic for any worker count.
func SynthesizeNetwork(n *cfsm.Network, opt Options, cfg pipeline.Config) ([]*pipeline.Artifact, error) {
	return pipeline.Run(n, opt, cfg)
}

// SynthesizeNetworkContext is SynthesizeNetwork under a context, for
// service callers (see cmd/polisd): cancellation or deadline expiry
// stops scheduling remaining modules and aborts in-flight ones at
// their next stage boundary, returning the context's error.
func SynthesizeNetworkContext(ctx context.Context, n *cfsm.Network, opt Options, cfg pipeline.Config) ([]*pipeline.Artifact, error) {
	return pipeline.RunContext(ctx, n, opt, cfg)
}

// SynthesizeSource parses an Esterel-subset module (see
// internal/esterel) and synthesizes it.
func SynthesizeSource(src string, opt Options) (*Artifacts, error) {
	mod, err := esterel.Parse(src)
	if err != nil {
		return nil, err
	}
	m, _, err := esterel.Compile(mod)
	if err != nil {
		return nil, err
	}
	return Synthesize(m, opt)
}

// GenerateRTOS renders the C source of the RTOS for a network under
// the given configuration, plus its size model on the target.
func GenerateRTOS(n *cfsm.Network, cfg rtos.Config, target *vm.Profile) (string, rtos.SizeReport, error) {
	if err := cfg.Validate(n); err != nil {
		return "", rtos.SizeReport{}, err
	}
	if target == nil {
		target = pipeline.DefaultTarget()
	}
	sigID := make(map[*cfsm.Signal]int, len(n.Signals))
	for i, s := range n.Signals {
		sigID[s] = i
	}
	src := codegen.RTOSHeader() + "\n" + rtos.GenerateC(n, cfg, sigID)
	return src, rtos.SizeEstimate(target, n, cfg), nil
}
