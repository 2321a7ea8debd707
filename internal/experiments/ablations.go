package experiments

import (
	"fmt"
	"strings"

	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/designs"
	"polis/internal/pipeline"
	"polis/internal/rtos"
	"polis/internal/sgraph"
	"polis/internal/sim"
	"polis/internal/vm"
)

// CollapseRow reports the TEST-node collapsing ablation for one CFSM
// (Section III-B3d: the paper never observed an improvement).
type CollapseRow struct {
	Module       string
	PlainBytes   int64
	CollapsedB   int64
	PlainMaxCyc  int64
	CollapsedCyc int64
	NodesMerged  int
}

// AblationCollapse measures TEST-node collapsing on the dashboard.
func AblationCollapse(prof *vm.Profile) ([]CollapseRow, error) {
	modules := designs.NewDashboard().Modules()
	opt := pipeline.Options{Target: prof}
	plain, err := synthesize(modules, opt)
	if err != nil {
		return nil, err
	}
	rows := make([]CollapseRow, len(modules))
	// Each plain artifact's graph is collapsed in place: the plain
	// columns read only the numbers the artifact recorded before.
	for i, m := range modules {
		g := plain[i].SGraph
		merged := g.CollapseTests(32)
		p, err := codegen.Assemble(g, codegen.NewSignalMap(m), opt.Codegen)
		if err != nil {
			return nil, err
		}
		act, err := vm.AnalyzeCycles(prof, p, codegen.EntryLabel(m))
		if err != nil {
			return nil, err
		}
		rows[i] = CollapseRow{
			Module:       m.Name,
			PlainBytes:   int64(plain[i].CodeSize),
			CollapsedB:   int64(prof.CodeSize(p)),
			PlainMaxCyc:  plain[i].Measured.Max,
			CollapsedCyc: act.Max,
			NodesMerged:  merged,
		}
	}
	return rows, nil
}

// FormatCollapse renders the collapsing ablation.
func FormatCollapse(prof *vm.Profile, rows []CollapseRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: TEST-node collapsing (Section III-B3d), target %s\n", prof.Name)
	fmt.Fprintf(&b, "%-14s %8s %9s %9s %9s %7s\n",
		"CFSM", "plain B", "collap B", "plain cy", "collap cy", "merged")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %8d %9d %9d %9d %7d\n",
			r.Module, r.PlainBytes, r.CollapsedB, r.PlainMaxCyc, r.CollapsedCyc, r.NodesMerged)
	}
	return b.String()
}

// RTOSReport is the Section IV-E ablation: generated versus
// commercial-style RTOS size, and polling versus interrupt delivery
// latency on the shock absorber's sensor chain.
type RTOSReport struct {
	GeneratedROM  int64
	GeneratedRAM  int64
	CommercialROM int64
	CommercialRAM int64
	InterruptLat  int64 // max sensor->solenoid latency, cycles
	PollingLat    int64 // same with the sample delivered by polling
	PollPeriod    int64
}

// AblationRTOS runs the RTOS comparison.
func AblationRTOS(prof *vm.Profile) (*RTOSReport, error) {
	s := designs.NewShockAbsorber()
	cfg := rtos.DefaultConfig()
	gen := rtos.SizeEstimate(prof, s.Net, cfg)
	com := rtos.CommercialSizeEstimate(prof, s.Net, cfg)
	rep := &RTOSReport{
		GeneratedROM:  gen.CodeBytes,
		GeneratedRAM:  gen.DataBytes,
		CommercialROM: com.CodeBytes,
		CommercialRAM: com.DataBytes,
		PollPeriod:    rtos.PollPeriod,
	}
	run := func(deliver rtos.Delivery) (int64, error) {
		c := rtos.DefaultConfig()
		c.Deliver = map[*cfsm.Signal]rtos.Delivery{s.AccelSample: deliver}
		var stim []sim.Stimulus
		stim = append(stim, sim.PeriodicStimuli(s.AccelSample, 1100, 9000, 300_000,
			func(i int) int64 { return int64(80 + (i%4)*6) })...)
		stim = append(stim, sim.Stimulus{Time: 500, Signal: s.SpeedSample, Value: 90})
		res, err := sim.Run(s.Net, stim, 400_000, sim.Options{
			Cfg: c, Mode: sim.VMExact, Profile: prof,
		})
		if err != nil {
			return 0, err
		}
		return sim.MaxLatency(res.Trace, s.AccelSample, s.Solenoid), nil
	}
	var err error
	if rep.InterruptLat, err = run(rtos.Interrupt); err != nil {
		return nil, err
	}
	if rep.PollingLat, err = run(rtos.Polling); err != nil {
		return nil, err
	}
	return rep, nil
}

// FormatRTOS renders the RTOS ablation.
func FormatRTOS(prof *vm.Profile, r *RTOSReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: generated vs commercial RTOS (Section IV-E), target %s\n", prof.Name)
	fmt.Fprintf(&b, "  generated:  ROM %6d B  RAM %5d B\n", r.GeneratedROM, r.GeneratedRAM)
	fmt.Fprintf(&b, "  commercial: ROM %6d B  RAM %5d B\n", r.CommercialROM, r.CommercialRAM)
	fmt.Fprintf(&b, "  delivery latency: interrupt %d cycles, polling %d cycles (period %d)\n",
		r.InterruptLat, r.PollingLat, r.PollPeriod)
	return b.String()
}

// CopyRow reports the copy-on-entry optimisation per module.
type CopyRow struct {
	Module   string
	FullROM  int64
	FullRAM  int64
	OptROM   int64
	OptRAM   int64
	FullWCET int64
	OptWCET  int64
}

// AblationCopies quantifies the write-before-read data-flow analysis
// the paper lists as the pending ROM/RAM/CPU improvement (Section V-B)
// over the shock-absorber modules.
func AblationCopies(prof *vm.Profile) ([]CopyRow, error) {
	modules := designs.NewShockAbsorber().Modules()
	opt := pipeline.Options{Target: prof}
	full, err := synthesize(modules, opt)
	if err != nil {
		return nil, err
	}
	opt.Codegen.OptimizeCopies = true
	opted, err := synthesize(modules, opt)
	if err != nil {
		return nil, err
	}
	rows := make([]CopyRow, len(modules))
	for i, f := range full {
		o := opted[i]
		rows[i] = CopyRow{
			Module:   f.Module,
			FullROM:  int64(f.CodeSize),
			FullRAM:  int64(prof.DataSize(f.Program)),
			OptROM:   int64(o.CodeSize),
			OptRAM:   int64(prof.DataSize(o.Program)),
			FullWCET: f.Measured.Max,
			OptWCET:  o.Measured.Max,
		}
	}
	return rows, nil
}

// FormatCopies renders the copy ablation.
func FormatCopies(prof *vm.Profile, rows []CopyRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: copy-on-entry vs write-before-read analysis, target %s\n", prof.Name)
	fmt.Fprintf(&b, "%-16s %8s %8s %8s %8s %9s %9s\n",
		"CFSM", "ROM", "optROM", "RAM", "optRAM", "WCET", "optWCET")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %8d %8d %8d %8d %9d %9d\n",
			r.Module, r.FullROM, r.OptROM, r.FullRAM, r.OptRAM, r.FullWCET, r.OptWCET)
	}
	return b.String()
}

// FalsePathRow compares the plain and false-path-aware WCET bounds.
type FalsePathRow struct {
	Module    string
	PlainMax  int64
	PrunedMax int64
}

// AblationFalsePaths measures the effect of event-incompatibility
// pruning (Section III-C) on the estimator's worst-case bound.
func AblationFalsePaths(prof *vm.Profile) ([]FalsePathRow, error) {
	modules := designs.NewDashboard().Modules()
	opt := pipeline.Options{Target: prof}
	plain, err := synthesize(modules, opt)
	if err != nil {
		return nil, err
	}
	opt.UseFalsePaths = true
	pruned, err := synthesize(modules, opt)
	if err != nil {
		return nil, err
	}
	rows := make([]FalsePathRow, len(modules))
	for i, a := range plain {
		rows[i] = FalsePathRow{
			Module:    a.Module,
			PlainMax:  a.Estimate.MaxCycles,
			PrunedMax: pruned[i].Estimate.MaxCycles,
		}
	}
	return rows, nil
}

// FormatFalsePaths renders the false-path ablation.
func FormatFalsePaths(prof *vm.Profile, rows []FalsePathRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: false-path pruning of the WCET bound, target %s\n", prof.Name)
	fmt.Fprintf(&b, "%-16s %10s %10s\n", "CFSM", "plain max", "pruned max")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %10d %10d\n", r.Module, r.PlainMax, r.PrunedMax)
	}
	return b.String()
}

// ReduceRow reports the s-graph reduction ablation for one CFSM:
// plain versus reduced vertex counts, measured code size and cycle
// bounds, and the estimator's ROM/WCET view of both graphs.
type ReduceRow struct {
	Module       string
	PlainVerts   int
	ReducedVerts int
	PlainBytes   int64
	ReducedBytes int64
	PlainMaxCyc  int64
	ReducedCyc   int64
	EstPlainROM  int64
	EstReducedR  int64
	EstPlainMax  int64
	EstReducedM  int64
	Stats        sgraph.ReduceStats
}

// AblationReduce measures the fixed-point s-graph reduction engine
// (sharing, don't-care TEST elimination, ASSIGN straightening) over
// the dashboard and shock-absorber modules. Graphs straight out of
// procedure build are already maximally shared, so the interesting
// rows are the modules with declared test exclusivities (the timer's
// at50/at150 predicates), where don't-care elimination removes TESTs
// the BDD construction cannot see are unreachable.
func AblationReduce(prof *vm.Profile) ([]ReduceRow, error) {
	var modules []*cfsm.CFSM
	modules = append(modules, designs.NewDashboard().Modules()...)
	modules = append(modules, designs.NewShockAbsorber().Modules()...)
	opt := pipeline.Options{Target: prof}
	plain, err := synthesize(modules, opt)
	if err != nil {
		return nil, err
	}
	opt.Reduce = true
	reduced, err := synthesize(modules, opt)
	if err != nil {
		return nil, err
	}
	rows := make([]ReduceRow, len(modules))
	for i, p := range plain {
		r := reduced[i]
		rows[i] = ReduceRow{
			Module:       p.Module,
			PlainVerts:   p.Stats.Vertices,
			ReducedVerts: r.Stats.Vertices,
			PlainBytes:   int64(p.CodeSize),
			ReducedBytes: int64(r.CodeSize),
			PlainMaxCyc:  p.Measured.Max,
			ReducedCyc:   r.Measured.Max,
			EstPlainROM:  p.Estimate.CodeBytes,
			EstReducedR:  r.Estimate.CodeBytes,
			EstPlainMax:  p.Estimate.MaxCycles,
			EstReducedM:  r.Estimate.MaxCycles,
			Stats:        r.Reduce,
		}
	}
	return rows, nil
}

// FormatReduce renders the reduction ablation.
func FormatReduce(prof *vm.Profile, rows []ReduceRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: s-graph reduction engine, target %s\n", prof.Name)
	fmt.Fprintf(&b, "%-14s %6s %6s %8s %8s %9s %9s %8s %8s %6s\n",
		"CFSM", "v", "v'", "bytes", "bytes'", "maxcyc", "maxcyc'", "estROM", "estROM'", "elim")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %6d %6d %8d %8d %9d %9d %8d %8d %6d\n",
			r.Module, r.PlainVerts, r.ReducedVerts,
			r.PlainBytes, r.ReducedBytes,
			r.PlainMaxCyc, r.ReducedCyc,
			r.EstPlainROM, r.EstReducedR,
			r.Stats.TestsEliminated)
	}
	return b.String()
}
