// Package experiments regenerates the paper's experimental section:
// Table I (cost/performance estimation accuracy), Table II (effect of
// TEST-variable orderings on code size), Table III (comparison with
// the Esterel compilation strategies), and the Section V-B
// shock-absorber redesign, plus the ablations DESIGN.md calls out
// (TEST-node collapsing, generated versus commercial RTOS, polling
// versus interrupts, copy-on-entry optimisation, false-path pruning).
// Both the benchmark harness (bench_test.go) and the CLI tools drive
// these entry points.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"polis/internal/baseline"
	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/designs"
	"polis/internal/logic"
	"polis/internal/pipeline"
	"polis/internal/rtos"
	"polis/internal/sgraph"
	"polis/internal/sim"
	"polis/internal/vm"
)

// synthesize runs the pipeline's full per-CFSM flow over the modules,
// one at a time and in order.
func synthesize(modules []*cfsm.CFSM, opt pipeline.Options) ([]*pipeline.Artifact, error) {
	return pipeline.RunModules(modules, opt, pipeline.Config{Jobs: 1})
}

// ---------------------------------------------------------------- T1

// Table1Row compares the estimator against exact object-code
// measurement for one CFSM.
type Table1Row struct {
	Module     string
	EstSize    int64
	ActSize    int64
	SizeErrPct float64
	EstMaxCyc  int64
	ActMaxCyc  int64
	CycErrPct  float64
	EstMinCyc  int64
	ActMinCyc  int64
}

// Table1 runs the cost/performance estimation experiment over the
// dashboard modules on the given target.
func Table1(prof *vm.Profile) ([]Table1Row, error) {
	return EstimationRows(prof, designs.NewDashboard().Modules())
}

// EstimationRows builds one Table I row per module: the estimator's
// code size and cycle bounds next to the measured object code, all
// from the pipeline's default flow on the given target.
func EstimationRows(prof *vm.Profile, modules []*cfsm.CFSM) ([]Table1Row, error) {
	arts, err := synthesize(modules, pipeline.Options{Target: prof})
	if err != nil {
		return nil, err
	}
	rows := make([]Table1Row, len(arts))
	for i, a := range arts {
		est, actSize := a.Estimate, int64(a.CodeSize)
		rows[i] = Table1Row{
			Module:     a.Module,
			EstSize:    est.CodeBytes,
			ActSize:    actSize,
			SizeErrPct: pctErr(est.CodeBytes, actSize),
			EstMaxCyc:  est.MaxCycles,
			ActMaxCyc:  a.Measured.Max,
			CycErrPct:  pctErr(est.MaxCycles, a.Measured.Max),
			EstMinCyc:  est.MinCycles,
			ActMinCyc:  a.Measured.Min,
		}
	}
	return rows, nil
}

func pctErr(est, act int64) float64 {
	if act == 0 {
		return 0
	}
	return 100 * float64(est-act) / float64(act)
}

// FormatTable1 renders the rows like the paper's Table I.
func FormatTable1(prof *vm.Profile, rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I -- cost/performance estimation, target %s\n", prof.Name)
	fmt.Fprintf(&b, "%-14s %9s %9s %7s   %9s %9s %7s\n",
		"CFSM", "est size", "act size", "err%", "est max", "act max", "err%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %9d %9d %6.1f%%   %9d %9d %6.1f%%\n",
			r.Module, r.EstSize, r.ActSize, r.SizeErrPct,
			r.EstMaxCyc, r.ActMaxCyc, r.CycErrPct)
	}
	return b.String()
}

// FormatEstimates renders estimation rows in sgestimate's compact
// layout, without the error columns.
func FormatEstimates(prof *vm.Profile, design string, rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Cost/performance estimation, %s, target %s\n", design, prof.Name)
	fmt.Fprintf(&b, "%-16s %9s %9s %9s %9s\n", "CFSM", "est size", "act size", "est max", "act max")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-16s %9d %9d %9d %9d\n",
			r.Module, r.EstSize, r.ActSize, r.EstMaxCyc, r.ActMaxCyc)
	}
	return b.String()
}

// ---------------------------------------------------------------- T2

// Table2Row reports the code size of one CFSM under the four
// strategies of Table II.
type Table2Row struct {
	Module           string
	Naive            int64 // declaration order, no sifting
	SiftInputsFirst  int64 // all outputs after all inputs
	SiftAfterSupport int64 // each output after its support (default)
	TwoLevelJump     int64 // structured hand-coding reference
}

// Table2 measures the ordering effect on the dashboard modules.
func Table2(prof *vm.Profile) ([]Table2Row, error) {
	d := designs.NewDashboard()
	var rows []Table2Row
	for _, m := range d.Modules() {
		row := Table2Row{Module: m.Name}
		for _, ord := range []sgraph.Ordering{
			sgraph.OrderNaive, sgraph.OrderSiftInputsFirst, sgraph.OrderSiftAfterSupport,
		} {
			a, err := pipeline.SynthesizeModule(m, pipeline.Options{Target: prof, Ordering: ord}, nil)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", m.Name, ord, err)
			}
			sz := int64(a.CodeSize)
			switch ord {
			case sgraph.OrderNaive:
				row.Naive = sz
			case sgraph.OrderSiftInputsFirst:
				row.SiftInputsFirst = sz
			default:
				row.SiftAfterSupport = sz
			}
		}
		two, err := baseline.TwoLevelJump(m, codegen.NewSignalMap(m), codegen.Options{})
		if err != nil {
			return nil, fmt.Errorf("%s/twolevel: %w", m.Name, err)
		}
		row.TwoLevelJump = int64(prof.CodeSize(two))
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatTable2 renders Table II.
func FormatTable2(prof *vm.Profile, rows []Table2Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II -- TEST-variable orderings, code bytes, target %s\n", prof.Name)
	fmt.Fprintf(&b, "%-14s %8s %12s %13s %10s\n",
		"CFSM", "naive", "sift(in<out)", "sift(support)", "two-level")
	var tn, ti, ts, tt int64
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %8d %12d %13d %10d\n",
			r.Module, r.Naive, r.SiftInputsFirst, r.SiftAfterSupport, r.TwoLevelJump)
		tn += r.Naive
		ti += r.SiftInputsFirst
		ts += r.SiftAfterSupport
		tt += r.TwoLevelJump
	}
	fmt.Fprintf(&b, "%-14s %8d %12d %13d %10d\n", "TOTAL", tn, ti, ts, tt)
	return b.String()
}

// ---------------------------------------------------------------- T3

// Table3Row is one implementation strategy over the same workload.
type Table3Row struct {
	Approach  string
	CodeBytes int64
	DataBytes int64
	SimCycles int64 // total CPU cycles consumed over the stimulus file
	Synthesis time.Duration
}

// Table3 compares POLIS per-CFSM synthesis against the two Esterel
// strategies on the belt+timer sub-network over a long stimulus file:
// POLIS runs the GALS network under the generated RTOS; ESTEREL runs
// the explicit synchronous product as one machine (v3); ESTEREL_OPT
// runs the boolean-circuit implementation of the same product (v5's
// outputs-before-inputs code style).
func Table3(prof *vm.Profile) ([]Table3Row, error) {
	net, d := designs.BeltSubnet()
	stimuli := beltWorkload(d, 2_000_000)
	until := int64(2_200_000)
	var rows []Table3Row

	// --- POLIS: per-CFSM decision-graph code under the RTOS.
	start := time.Now()
	opts := sim.Options{
		Cfg:     rtos.DefaultConfig(),
		Mode:    sim.VMExact,
		Profile: prof,
	}
	res, err := sim.Run(net, stimuli, until, opts)
	if err != nil {
		return nil, err
	}
	rsize := rtos.SizeEstimate(prof, net, opts.Cfg)
	rows = append(rows, Table3Row{
		Approach:  "POLIS",
		CodeBytes: res.CodeBytes + rsize.CodeBytes,
		DataBytes: res.DataBytes + rsize.DataBytes,
		SimCycles: res.System.BusyCycles,
		Synthesis: time.Since(start),
	})

	// --- ESTEREL (v3): single product FSM, decision-graph code.
	start = time.Now()
	prod, err := baseline.SingleFSM(net)
	if err != nil {
		return nil, err
	}
	a, err := pipeline.SynthesizeModule(prod, pipeline.Options{Target: prof}, nil)
	if err != nil {
		return nil, err
	}
	p := a.Program
	synthV3 := time.Since(start)
	cycles, err := runProductVM(prod, p, prof, stimuli)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table3Row{
		Approach:  "ESTEREL",
		CodeBytes: int64(a.CodeSize),
		DataBytes: int64(prof.DataSize(p)),
		SimCycles: cycles,
		Synthesis: synthV3,
	})

	// --- ESTEREL_OPT (v5): boolean-circuit code for the product.
	start = time.Now()
	r, err := cfsm.BuildReactive(prod)
	if err != nil {
		return nil, err
	}
	netw, err := logic.Build(r)
	if err != nil {
		return nil, err
	}
	cp, err := logic.Assemble(netw, codegen.NewSignalMap(prod), codegen.Options{})
	if err != nil {
		return nil, err
	}
	synthOpt := time.Since(start)
	cyclesOpt, err := runProductVM(prod, cp, prof, stimuli)
	if err != nil {
		return nil, err
	}
	rows = append(rows, Table3Row{
		Approach:  "ESTEREL_OPT",
		CodeBytes: int64(prof.CodeSize(cp)),
		DataBytes: int64(prof.DataSize(cp)),
		SimCycles: cyclesOpt,
		Synthesis: synthOpt,
	})
	return rows, nil
}

// beltWorkload builds the large simulation input file: periodic ticks,
// key cycles, occasional belt fastenings.
func beltWorkload(d *designs.Dashboard, until int64) []sim.Stimulus {
	var st []sim.Stimulus
	st = append(st, sim.PeriodicStimuli(d.Tick, 2000, 10_000, until, nil)...)
	for t := int64(5_000); t < until; t += 400_000 {
		st = append(st, sim.Stimulus{Time: t, Signal: d.KeyOn})
		st = append(st, sim.Stimulus{Time: t + 320_000, Signal: d.KeyOff})
	}
	for t := int64(950_000); t < until; t += 800_000 {
		st = append(st, sim.Stimulus{Time: t, Signal: d.BeltOn})
	}
	// runProductVM groups the stream into instants, so it must be in
	// time order (the order sim.Run replays it in).
	sort.SliceStable(st, func(i, j int) bool { return st[i].Time < st[j].Time })
	return st
}

// runProductVM executes the single product machine on the VM over the
// stimulus stream: one synchronous reaction per instant at which any
// input event is present (the product consumes the whole snapshot).
func runProductVM(prod *cfsm.CFSM, p *vm.Program, prof *vm.Profile, stimuli []sim.Stimulus) (int64, error) {
	host := &productHost{byID: map[int]*cfsm.Signal{}}
	sigs := codegen.NewSignalMap(prod)
	for s, id := range sigs {
		host.byID[id] = s
	}
	m := vm.NewMachine(prof, p.Words, host)
	codegen.InitStateMemory(prod, p, m)
	// Group stimuli into instants.
	var total int64
	i := 0
	for i < len(stimuli) {
		t := stimuli[i].Time
		host.present = map[*cfsm.Signal]bool{}
		host.values = map[*cfsm.Signal]int64{}
		for i < len(stimuli) && stimuli[i].Time == t {
			host.present[stimuli[i].Signal] = true
			host.values[stimuli[i].Signal] = stimuli[i].Value
			i++
		}
		cycles, err := m.Run(p, codegen.EntryLabel(prod))
		if err != nil {
			return 0, fmt.Errorf("product run: %w", err)
		}
		total += cycles
	}
	return total, nil
}

type productHost struct {
	byID    map[int]*cfsm.Signal
	present map[*cfsm.Signal]bool
	values  map[*cfsm.Signal]int64
	Emitted []cfsm.Emission
}

func (h *productHost) Present(sig int) bool { return h.present[h.byID[sig]] }
func (h *productHost) Value(sig int) int64  { return h.values[h.byID[sig]] }
func (h *productHost) Emit(sig int) {
	h.Emitted = append(h.Emitted, cfsm.Emission{Signal: h.byID[sig]})
}
func (h *productHost) EmitValue(sig int, v int64) {
	h.Emitted = append(h.Emitted, cfsm.Emission{Signal: h.byID[sig], Value: v})
}

// FormatTable3 renders Table III.
func FormatTable3(prof *vm.Profile, rows []Table3Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III -- comparison with Esterel strategies (belt chain), target %s\n", prof.Name)
	fmt.Fprintf(&b, "%-12s %10s %10s %12s %12s\n",
		"approach", "code B", "data B", "sim cycles", "synthesis")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10d %10d %12d %12s\n",
			r.Approach, r.CodeBytes, r.DataBytes, r.SimCycles, r.Synthesis.Round(time.Millisecond))
	}
	return b.String()
}
