// Package pipeline orchestrates whole-network software synthesis as a
// staged, concurrent pipeline. The paper compiles a network of CFSMs
// one machine at a time (Section III); the per-machine flows are
// independent, so this package runs them on a bounded worker pool,
// each worker owning its own single-goroutine BDD manager (see the
// internal/bdd package doc), with
//
//   - deterministic output ordering: results follow the network's
//     machine order regardless of completion order, so -j 1 and -j N
//     produce byte-identical artifacts;
//   - fail-fast error aggregation: the first failure stops dispatch of
//     further modules, in-flight modules finish, and every error is
//     reported with its module attribution;
//   - a content-addressed artifact cache (see Cache) keyed by the
//     module's reactive function and the synthesis options; and
//   - an observability sink (see Trace and Collector) recording
//     per-stage wall time, BDD peak node counts, sift passes, and
//     cache hit/miss counters.
//
// The root polis package exposes this as polis.SynthesizeNetwork.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/estimate"
	"polis/internal/names"
	"polis/internal/profile"
	"polis/internal/sgraph"
	"polis/internal/vm"
)

// Options selects the synthesis configuration; the root package
// re-exports it as polis.Options. The zero value is the paper's
// default flow on the HC11-class target.
type Options struct {
	// Ordering is the s-graph variable-ordering strategy; the zero
	// value is the paper's default (dynamic sifting with each output
	// constrained after its support).
	Ordering sgraph.Ordering
	// Target selects the cost profile; nil means the HC11-class
	// micro-controller.
	Target *vm.Profile
	// Codegen tunes code generation.
	Codegen codegen.Options
	// UseFalsePaths tightens the worst-case estimate using declared
	// test exclusivities.
	UseFalsePaths bool
	// Reduce runs the fixed-point s-graph reduction engine (sharing,
	// don't-care TEST elimination, ASSIGN straightening) between
	// s-graph construction and code generation.
	Reduce bool
	// ReduceOpt is passed to sgraph.Reduce; it has no fields.
	ReduceOpt sgraph.ReduceOptions
	// Profile, when non-nil, enables the profile-guided specialization
	// stage for every module the profile has evidence for: TEST
	// outcome edges are reordered hottest-first (equivalence-gated),
	// and the estimate stage reports the profile-weighted expected
	// cycles next to the worst-case bound. Capture profiles with
	// internal/profile's Collector (e.g. cfsmsim -profile-out).
	Profile *profile.Profile
}

func (o *Options) fill() {
	if o.Target == nil {
		o.Target = defaultTarget
	}
}

// defaultTarget is the profile a nil target resolves to.
var defaultTarget, _ = vm.Target("hc11")

// DefaultTarget returns the shared HC11 profile, vm.Target("hc11"),
// that nil targets resolve to throughout the flow (pipeline, polis,
// polisd, sim). It must not be modified.
func DefaultTarget() *vm.Profile { return defaultTarget }

// Config tunes one pipeline run.
type Config struct {
	// Jobs bounds the number of concurrently synthesized modules
	// (the -j N knob); <= 0 means GOMAXPROCS.
	Jobs int
	// Cache, if non-nil, is consulted before and updated after each
	// module's synthesis.
	Cache *Cache
	// Trace, if non-nil, receives pipeline events; use a Collector
	// for the default stats report.
	Trace Trace
}

// Artifact bundles everything synthesis produces for one CFSM, in a
// form the cache can round-trip. The live handles (CFSM, SGraph,
// Program) are nil when the artifact was restored from the on-disk
// cache; the serialisable payload is always present.
type Artifact struct {
	Module     string
	NumTests   int
	NumActions int
	NumTrans   int

	C        string // generated C routine
	Listing  string // assembly listing
	Estimate estimate.Result
	Measured vm.PathCycles // exact min/max cycles from the object code
	CodeSize int           // measured bytes
	Stats    sgraph.Stats  // s-graph structure statistics

	// Reduced records whether the reduction stage ran; Reduce holds
	// its statistics (zero value when the stage was off).
	Reduced bool
	Reduce  sgraph.ReduceStats

	// Specialized records whether the profile-guided specialization
	// stage ran; Specialize holds its statistics.
	Specialized bool
	Specialize  sgraph.SpecializeStats

	// Live handles; nil on a disk-cache hit.
	CFSM    *cfsm.CFSM
	SGraph  *sgraph.SGraph
	Program *vm.Program
}

// Report renders the one-screen per-module summary from the cached
// statistics, so it works for disk-restored artifacts too. A zero
// measured code size reports the estimation error as n/a rather than
// dividing by zero.
func (a *Artifact) Report() string {
	errPct := "n/a"
	if a.CodeSize != 0 {
		errPct = fmt.Sprintf("%.1f%%",
			100*float64(a.Estimate.CodeBytes-int64(a.CodeSize))/float64(a.CodeSize))
	}
	s := fmt.Sprintf(
		`CFSM %s: %d tests, %d actions, %d transitions
s-graph: %d vertices (%d TEST, %d ASSIGN), depth %d, %d paths
code: %d bytes measured (%d estimated, %s error)
cycles per transition: measured [%d, %d], estimated [%d, %d]
`,
		a.Module, a.NumTests, a.NumActions, a.NumTrans,
		a.Stats.Vertices, a.Stats.Tests, a.Stats.Assigns, a.Stats.Depth, a.Stats.Paths,
		a.CodeSize, a.Estimate.CodeBytes, errPct,
		a.Measured.Min, a.Measured.Max, a.Estimate.MinCycles, a.Estimate.MaxCycles)
	if a.Reduced {
		s += fmt.Sprintf("reduce: %s\n", a.Reduce)
	}
	if a.Specialized {
		s += fmt.Sprintf("specialize: %s\n", a.Specialize)
		if a.Estimate.ExpectedCycles > 0 {
			s += fmt.Sprintf("expected cycles (profiled): %d\n", a.Estimate.ExpectedCycles)
		}
	}
	return s
}

// SynthesizeModule runs the complete per-CFSM flow of Section III —
// reactive-function extraction, BDD sifting, s-graph construction,
// C and object-code generation, and cost/performance estimation —
// emitting one EvStage event per stage and one EvBDD event with the
// module's BDD statistics. A nil Trace disables tracing. The BDD
// manager is created and used entirely within this call, so
// concurrent calls never share one.
func SynthesizeModule(m *cfsm.CFSM, opt Options, tr Trace) (*Artifact, error) {
	return SynthesizeModuleContext(context.Background(), m, opt, tr)
}

// SynthesizeModuleContext is SynthesizeModule under a context. The
// deadline or cancellation is checked before the reactive function is
// built, after it, after sifting, after s-graph construction and
// reduction, after specialization, and between code generation and
// estimation, so an abandoned request stops consuming its worker at
// the next of those boundaries.
func SynthesizeModuleContext(ctx context.Context, m *cfsm.CFSM, opt Options, tr Trace) (*Artifact, error) {
	opt.fill()
	if tr == nil {
		tr = nopTrace{}
	}
	sg, err := SynthesizeGraph(ctx, m, opt, tr)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return backEnd(ctx, m, sg, opt, tr)
}

// backEnd runs the stages after the s-graph on sg: one codegen.Routine
// shared by assembly, C emission and estimation, the exact cycle
// analysis of the object code, and the artifact. It checks ctx between
// the codegen and estimate stages.
func backEnd(ctx context.Context, m *cfsm.CFSM, sg *Graph, opt Options, tr Trace) (*Artifact, error) {
	g := sg.SGraph
	t := time.Now()
	r := codegen.NewRoutine(g, opt.Codegen)
	prog, err := r.Assemble(codegen.NewSignalMap(m))
	if err != nil {
		tr.Event(Event{Kind: EvStage, Module: m.Name, Stage: StageCodegen, Duration: time.Since(t)})
		return nil, err
	}
	cSrc := r.EmitC()
	meas, err := vm.AnalyzeCycles(opt.Target, prog, codegen.EntryLabel(m))
	tr.Event(Event{Kind: EvStage, Module: m.Name, Stage: StageCodegen, Duration: time.Since(t)})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	t = time.Now()
	params, err := estimate.CalibrateCached(opt.Target)
	if err != nil {
		return nil, err
	}
	est := estimate.EstimateRoutine(r, params, estimate.Options{
		UseFalsePaths:   opt.UseFalsePaths,
		ScenarioProfile: sg.Spec,
	})
	tr.Event(Event{Kind: EvStage, Module: m.Name, Stage: StageEstimate, Duration: time.Since(t)})

	return &Artifact{
		Module:      m.Name,
		NumTests:    len(m.Tests),
		NumActions:  len(m.Actions),
		NumTrans:    len(m.Trans),
		C:           cSrc,
		Listing:     prog.Listing(),
		Estimate:    est,
		Measured:    meas,
		CodeSize:    opt.Target.CodeSize(prog),
		Stats:       g.ComputeStats(),
		Reduced:     opt.Reduce,
		Reduce:      sg.Reduce,
		Specialized: sg.Spec != nil,
		Specialize:  sg.Specialize,
		CFSM:        m,
		SGraph:      g,
		Program:     prog,
	}, nil
}

// Graph is the s-graph half of the per-CFSM flow: the graph that code
// generation and estimation consume, with the statistics of the
// optional stages that shaped it.
type Graph struct {
	SGraph *sgraph.SGraph
	// Reduce holds the reduction statistics (zero when opt.Reduce is
	// off).
	Reduce sgraph.ReduceStats
	// Specialize holds the specialization statistics, and Spec the
	// profile applied; Spec is nil when the stage did not run.
	Specialize sgraph.SpecializeStats
	Spec       *sgraph.SpecializeProfile
}

// SynthesizeGraph runs the flow up to the s-graph boundary: reactive
// function, sifting, s-graph construction, then the optional reduce
// (gated by CheckWellFormed) and specialize stages, emitting the same
// trace events as SynthesizeModule does for them. Its one caller
// outside this package is the simulator's Behavioral mode, which only
// estimates the graph and so skips the whole back end; everything that
// needs object code takes it from a SynthesizeModule artifact. A nil
// Trace disables tracing.
func SynthesizeGraph(ctx context.Context, m *cfsm.CFSM, opt Options, tr Trace) (*Graph, error) {
	if tr == nil {
		tr = nopTrace{}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// bddStage emits an EvStage event carrying a snapshot of the
	// module's BDD manager: live/peak node counts at the stage
	// boundary plus the op-cache traffic the stage itself generated.
	var prevHits, prevMisses int
	bddStage := func(r *cfsm.Reactive, stage Stage, d time.Duration) {
		ev := Event{Kind: EvStage, Module: m.Name, Stage: stage, Duration: d}
		if r != nil {
			mgr := r.Space.M
			ev.BDDLive = mgr.NumNodes()
			ev.BDDPeakNodes = mgr.PeakNodes
			ev.BDDCacheHits = mgr.Hits - prevHits
			ev.BDDCacheMisses = mgr.Misses - prevMisses
			prevHits, prevMisses = mgr.Hits, mgr.Misses
		}
		tr.Event(ev)
	}

	t := time.Now()
	r, err := cfsm.BuildReactive(m)
	bddStage(r, StageReactive, time.Since(t))
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	t = time.Now()
	err = sgraph.ApplyOrdering(r, opt.Ordering)
	bddStage(r, StageSift, time.Since(t))
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	t = time.Now()
	g, err := sgraph.FromChi(r)
	bddStage(r, StageSGraph, time.Since(t))
	if err != nil {
		return nil, err
	}
	mgr := r.Space.M
	tr.Event(Event{Kind: EvBDD, Module: m.Name,
		PeakNodes: mgr.PeakNodes, SiftSwaps: mgr.Swaps, SiftPasses: mgr.SiftPasses,
		SiftSwapsSkipped: mgr.SwapsSkipped, SiftLBPrunes: mgr.LBPrunes,
		CacheHits: mgr.Hits, CacheMisses: mgr.Misses,
		CacheResets: mgr.CacheResets, CacheEvictions: mgr.Evictions})
	// The s-graph holds no BDD handles: hand the manager's storage to
	// the next module's reactive function.
	mgr.Release()
	sg := &Graph{SGraph: g}

	if opt.Reduce {
		t = time.Now()
		sg.Reduce = g.Reduce(opt.ReduceOpt)
		tr.Event(Event{Kind: EvStage, Module: m.Name, Stage: StageReduce, Duration: time.Since(t)})
		tr.Event(Event{Kind: EvReduce, Module: m.Name, Reduce: sg.Reduce})
		if err := g.CheckWellFormed(); err != nil {
			return nil, fmt.Errorf("pipeline: reduced s-graph: %w", err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if opt.Profile != nil {
		if sp := opt.Profile.Module(m.Name).Spec(); sp != nil {
			t = time.Now()
			sg.Specialize, err = g.SpecializeChecked(sp)
			tr.Event(Event{Kind: EvStage, Module: m.Name, Stage: StageSpecialize, Duration: time.Since(t)})
			if err != nil {
				return nil, fmt.Errorf("pipeline: specialize: %w", err)
			}
			tr.Event(Event{Kind: EvSpecialize, Module: m.Name, Specialize: sg.Specialize})
			sg.Spec = sp
		}
	}
	return sg, nil
}

// Run synthesizes every machine of the network through the concurrent
// pipeline and returns the artifacts in the network's machine order.
func Run(n *cfsm.Network, opt Options, cfg Config) ([]*Artifact, error) {
	return RunContext(context.Background(), n, opt, cfg)
}

// RunContext is Run under a context; see RunModulesContext for the
// cancellation contract.
func RunContext(ctx context.Context, n *cfsm.Network, opt Options, cfg Config) ([]*Artifact, error) {
	return RunModulesContext(ctx, n.Machines, opt, cfg)
}

// RunModules is Run over an explicit machine list. Results are
// returned in input order regardless of completion order. On failure
// it returns an aggregate error naming every failed module; after the
// first failure no new modules are started (fail-fast), but modules
// already in flight run to completion so their errors are attributed
// too.
func RunModules(machines []*cfsm.CFSM, opt Options, cfg Config) ([]*Artifact, error) {
	return RunModulesContext(context.Background(), machines, opt, cfg)
}

// RunModulesContext is RunModules under a context: when the context is
// cancelled or its deadline expires, no further modules are scheduled
// (the same drain path fail-fast uses), in-flight modules stop at
// their next stage boundary, and the context's error is returned. A
// dead client therefore costs at most the work already dispatched.
func RunModulesContext(ctx context.Context, machines []*cfsm.CFSM, opt Options, cfg Config) ([]*Artifact, error) {
	opt.fill()
	tr := cfg.Trace
	if tr == nil {
		tr = nopTrace{}
	}
	workers := cfg.Jobs
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(machines) {
		workers = len(machines)
	}
	if workers < 1 {
		workers = 1
	}
	tr.Event(Event{Kind: EvRunStart, Modules: len(machines), Workers: workers})
	start := time.Now()

	results := make([]*Artifact, len(machines))
	moduleErrs := make([]error, len(machines))
	var failed atomic.Bool
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if failed.Load() || ctx.Err() != nil {
					continue // fail-fast/cancelled: drain without synthesizing
				}
				a, err := synthesizeCached(ctx, machines[i], opt, cfg.Cache, tr)
				if err != nil {
					if ctx.Err() == nil {
						moduleErrs[i] = fmt.Errorf("module %s: %w", machines[i].Name, err)
						tr.Event(Event{Kind: EvModuleError, Module: machines[i].Name, Err: err})
					}
					failed.Store(true)
					continue
				}
				results[i] = a
			}
		}()
	}
dispatch:
	for i := range machines {
		select {
		case jobs <- i:
		case <-ctx.Done():
			break dispatch
		}
	}
	close(jobs)
	wg.Wait()
	ev := Event{Kind: EvRunEnd, Duration: time.Since(start)}
	if cfg.Cache != nil {
		st := cfg.Cache.Stats()
		ev.Cache = &st
	}
	tr.Event(ev)

	if err := ctx.Err(); err != nil {
		done := 0
		for _, a := range results {
			if a != nil {
				done++
			}
		}
		return nil, fmt.Errorf("pipeline: run cancelled after %d of %d module(s): %w",
			done, len(machines), err)
	}
	if failed.Load() {
		var agg []error
		for _, e := range moduleErrs {
			if e != nil {
				agg = append(agg, e)
			}
		}
		return nil, fmt.Errorf("pipeline: %d of %d module(s) failed: %w",
			len(agg), len(machines), errors.Join(agg...))
	}
	return results, nil
}

// synthesizeCached synthesizes one module, through the cache and its
// singleflight layer (see Serve) when cache is non-nil.
func synthesizeCached(ctx context.Context, m *cfsm.CFSM, opt Options, cache *Cache, tr Trace) (*Artifact, error) {
	if cache == nil {
		return SynthesizeModuleContext(ctx, m, opt, tr)
	}
	a, _, err := cache.Serve(ctx, Fingerprint(m, opt), m.Name, tr, func(ctx context.Context) (*Artifact, error) {
		return SynthesizeModuleContext(ctx, m, opt, tr)
	})
	return a, err
}

// Outcome classifies how a cached synthesis was served.
type Outcome int

// Outcomes, from coldest to warmest.
const (
	// OutcomeMiss: this call ran the synthesis pipeline.
	OutcomeMiss Outcome = iota
	// OutcomeDedup: an identical synthesis was already in flight; this
	// call waited for its artifact (singleflight join).
	OutcomeDedup
	// OutcomeDiskHit: restored from the on-disk cache layer.
	OutcomeDiskHit
	// OutcomeMemHit: served from the in-memory cache layer.
	OutcomeMemHit

	// NumOutcomes is the number of outcomes: the length of a tally
	// indexed by Outcome.
	NumOutcomes
)

// outcomeNames is the name table of the outcomes, indexed by Outcome.
var outcomeNames = []string{OutcomeMiss: "miss", OutcomeDedup: "dedup", OutcomeDiskHit: "disk", OutcomeMemHit: "mem"}

func (o Outcome) String() string { return names.Name(outcomeNames, o) }

// ParseOutcome reverses Outcome.String; an unknown name is an error.
func ParseOutcome(s string) (Outcome, error) {
	o, err := names.Parse[Outcome]("cache outcome", outcomeNames, s)
	if err != nil {
		return 0, fmt.Errorf("pipeline: %w", err)
	}
	return o, nil
}

// Serve serves the artifact of key through the cache with singleflight
// dedup: concurrent callers (workers of one run, or of different runs
// and service requests sharing this Cache) that miss on the same key
// elect one leader, and only the leader calls synth; the rest wait for
// its artifact instead of duplicating the work. A leader that dies of
// its own context's end says nothing about a joiner's request, so the
// joiner retries and may lead in turn. The returned Outcome reports
// which layer served the call, and one EvCache event named module
// reports it to tr when the call returns, error or not. A nil tr
// disables tracing.
func (c *Cache) Serve(ctx context.Context, key, module string, tr Trace,
	synth func(context.Context) (*Artifact, error)) (a *Artifact, out Outcome, err error) {
	if tr != nil {
		defer func() { tr.Event(Event{Kind: EvCache, Module: module, Outcome: out}) }()
	}
	for {
		if a, fromDisk, ok := c.Get(key); ok {
			if fromDisk {
				return a, OutcomeDiskHit, nil
			}
			return a, OutcomeMemHit, nil
		}
		f, leader := c.startFlight(key)
		if leader {
			// A leader that finished between the Get above and
			// startFlight published its artifact before ending its
			// flight: serve that instead of synthesizing again.
			if a, ok := c.peek(key); ok {
				c.endFlight(key, f, a, nil)
				return a, OutcomeMemHit, nil
			}
			a, err := synth(ctx)
			if err == nil {
				c.Put(key, a)
			}
			c.endFlight(key, f, a, err)
			return a, OutcomeMiss, err
		}
		select {
		case <-f.done:
			if f.err != nil {
				if errors.Is(f.err, context.Canceled) || errors.Is(f.err, context.DeadlineExceeded) {
					continue
				}
				return nil, OutcomeDedup, f.err
			}
			return f.a, OutcomeDedup, nil
		case <-ctx.Done():
			return nil, OutcomeDedup, ctx.Err()
		}
	}
}
