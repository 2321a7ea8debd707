// Package sim drives co-simulation of a CFSM network under a
// generated RTOS (the counterpart of the paper's simulation
// environment [30]): environment stimuli are injected on a cycle
// timeline, software CFSMs execute either behaviourally with estimated
// costs or exactly on the virtual CPU, and the resulting event trace
// supports latency and throughput measurements with realistic inputs
// — including seldom-executed paths and the scheduling policy, as
// Section III-C1 describes for dynamic performance calculation.
//
// A VMExact task is built from the artifact of
// pipeline.SynthesizeModuleContext: it runs the program, and checks
// the cycle bounds and estimate, that synthesis reports for its
// machine. A Behavioral task charges the worst-case estimate of the
// s-graph pipeline.SynthesizeGraph builds, without code generation.
//
// The execution core is throughput-oriented: reactions run over dense
// slot-indexed buffers resolved once at task-build time and allocate
// nothing in steady state. A VMExact task's program is checked by its
// vm.Machine on the task's first reaction; every reaction is then one
// pass over the program's instruction stream, which also reports
// whether an ASSIGN fired. Golden tests pin this engine to the traces,
// cycle counts, accounting and final states the previous map-based,
// event-at-a-time engine produced on 176 randomized scenarios
// (testdata/engine_golden.json).
package sim

import (
	"context"
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/estimate"
	"polis/internal/names"
	"polis/internal/pipeline"
	"polis/internal/profile"
	"polis/internal/rtos"
	"polis/internal/vm"
)

// Mode selects how software reactions are timed.
type Mode int

// Simulation modes.
const (
	// Behavioral runs reactions with the reference interpreter and
	// charges the estimator's worst-case cycles per reaction.
	Behavioral Mode = iota
	// VMExact assembles each CFSM and executes every reaction on the
	// virtual CPU, charging the exact cycle count.
	VMExact
)

// modeNames is the name table of the timing modes, indexed by Mode.
var modeNames = []string{Behavioral: "behavioral", VMExact: "vm"}

// ParseMode resolves a timing mode by name: "behavioral" or "vm".
func ParseMode(name string) (Mode, error) { return names.Parse[Mode]("mode", modeNames, name) }

// Name returns the name ParseMode resolves to m.
func (m Mode) Name() string { return names.Name(modeNames, m) }

// Stimulus is one environment event.
type Stimulus struct {
	Time   int64
	Signal *cfsm.Signal
	Value  int64
}

// CheckOptions selects the differential runtime checks the simulator
// performs on every reaction; the netfuzz harness turns them all on.
// A violated check surfaces as an error out of Run with the failing
// CFSM's name attached — never a panic.
type CheckOptions struct {
	// VMAgainstReference cross-checks every VMExact reaction against
	// the reference interpreter on the same frozen snapshot: emission
	// multiset, next state and the fired bit must agree.
	VMAgainstReference bool
	// CycleBounds verifies per VMExact reaction that the exact cycle
	// count lies within the object-code analyzer's [Min, Max] path
	// bounds (a sound bracket, since generated routines are acyclic)
	// and does not exceed the estimator's worst case by more than
	// estimateSlack.
	CycleBounds bool
}

// estimateSlack is the tolerated fractional overshoot of the
// estimator's MaxCycles under CheckOptions.CycleBounds: the
// calibration contract is ±20%, so 0.25 leaves margin above it.
const estimateSlack = 0.25

// Options configures a simulation run.
type Options struct {
	Cfg  rtos.Config
	Mode Mode
	// Profile is the target every task is synthesized, run and timed
	// on; nil means pipeline.DefaultTarget(). Tasks are synthesized
	// with the default ordering and code-generation options.
	Profile *vm.Profile
	// Reduce runs the fixed-point s-graph reduction engine on every
	// synthesized task graph before code generation; the differential
	// checks then exercise reduced object code against the reference
	// interpreter.
	Reduce bool
	// Specialize, when non-nil, applies profile-guided hot-path
	// specialization to every task graph (after reduction, before
	// code generation): each module with evidence in the profile gets
	// its TEST outcome edges reordered hottest-first through
	// sgraph.SpecializeChecked, so the equivalence gate runs on every
	// specialized graph. Behavioral tasks take their worst-case cycles
	// from the estimate of the specialized graph.
	Specialize *profile.Profile
	// Probe, when non-nil, observes every delivery and execution in
	// the underlying RTOS model (see rtos.Probe). With Partition it
	// observes all islands and forces them to run serially, since a
	// probe implementation need not be safe for concurrent use.
	Probe rtos.Probe
	// Check enables per-reaction differential checks.
	Check CheckOptions
	// Partition splits the network into clock-independent GALS
	// islands (connected components over shared signals and task
	// chains) and simulates each on its own RTOS instance — i.e. its
	// own CPU, so with more than one island the timing model differs
	// from a single shared processor. Islands run concurrently on up
	// to Workers goroutines; the merged trace is deterministic and
	// identical to a serial island-by-island run.
	Partition bool
	// Workers bounds island concurrency under Partition; 0 means
	// GOMAXPROCS. With one worker the runner degrades to a strictly
	// serial loop with no goroutines.
	Workers int
}

// Result carries the outcome of a run.
type Result struct {
	Trace  []rtos.TraceEvent
	Cycles int64
	// System is the RTOS instance of a single-system run. Partitioned
	// runs with more than one island leave it nil and fill Systems.
	System *rtos.System
	// Systems holds the per-island RTOS instances of a partitioned
	// run, in island order; single-system runs leave it nil.
	Systems []*rtos.System
	// CodeBytes and DataBytes total the software partition (tasks
	// only; add the RTOS size model for full ROM/RAM).
	CodeBytes int64
	DataBytes int64
}

// vmTask wraps one assembled CFSM for exact co-simulation. All
// per-reaction traffic runs over dense slot indices resolved once at
// build time; the Host callbacks and react itself allocate nothing.
type vmTask struct {
	m       *cfsm.CFSM
	prog    *vm.Program
	machine *vm.Machine
	lay     *cfsm.Layout
	entry   string

	// sigOf maps a codegen signal id back to its signal (for
	// emissions); inSlot maps it to the machine's input slot, -1 for
	// pure outputs. stateAddr maps each state slot to the memory
	// address of its storage (codegen.StateAddr); a missing symbol
	// resolves to address 0, preserving the previous engine's
	// behaviour of reading/writing Mem[0] for untracked variables.
	sigOf     []*cfsm.Signal
	inSlot    []int
	stateAddr []int

	// differential-check state (populated when checks are enabled)
	check  CheckOptions
	bounds vm.PathCycles
	estMax int64

	// per-reaction capture: the frozen snapshot and the reaction
	// buffer currently bound by react, read by the Host callbacks.
	snap   *cfsm.DenseSnapshot
	out    *cfsm.DenseReaction
	cycles int64
}

func (t *vmTask) Present(sig int) bool {
	slot := t.inSlot[sig]
	return slot >= 0 && t.snap.Present[slot]
}

// Value reads a signal's buffered value; absent signals read as zero
// (the dense snapshot zeroes absent slots, and non-input ids map to
// slot -1).
func (t *vmTask) Value(sig int) int64 {
	slot := t.inSlot[sig]
	if slot < 0 {
		return 0
	}
	return t.snap.Values[slot]
}

func (t *vmTask) Emit(sig int) {
	t.out.Emitted = append(t.out.Emitted, cfsm.Emission{Signal: t.sigOf[sig]})
}

func (t *vmTask) EmitValue(sig int, v int64) {
	t.out.Emitted = append(t.out.Emitted, cfsm.Emission{Signal: t.sigOf[sig], Value: v})
}

// react executes one reaction on the VM and records its exact cost. A
// machine fault (bad address, runaway program, unknown service) is
// returned as an error — the RTOS aborts the run with the task name
// attached — rather than panicking the whole process, so adversarial
// networks are a diagnosable failure.
func (t *vmTask) react(snap *cfsm.DenseSnapshot, out *cfsm.DenseReaction) error {
	t.snap, t.out = snap, out
	out.Fired = false
	out.Emitted = out.Emitted[:0]
	for i, addr := range t.stateAddr {
		t.machine.Mem[addr] = snap.State[i]
	}
	cycles, err := t.machine.Run(t.prog, t.entry)
	if err != nil {
		return fmt.Errorf("vm reaction failed: %w", err)
	}
	t.cycles = cycles
	out.NextState = out.NextState[:0]
	for _, addr := range t.stateAddr {
		out.NextState = append(out.NextState, t.machine.Mem[addr])
	}
	// Whether any ASSIGN vertex executed decides event consumption
	// (Section IV-D); the machine reports it from the Fires marks
	// Assemble puts on each ASSIGN's effect instruction.
	out.Fired = t.machine.Fired
	if t.check.VMAgainstReference {
		if err := checkReference(t.m, snap.Snapshot(), out.Reaction(t.lay)); err != nil {
			return err
		}
	}
	if t.check.CycleBounds {
		if err := t.checkCycles(cycles); err != nil {
			return err
		}
	}
	return nil
}

// checkReference compares a VM reaction against the reference
// interpreter on the same snapshot. Emissions are compared as a sorted
// multiset (like internal/crosstest): object code may reorder
// independent emissions within one reaction.
func checkReference(m *cfsm.CFSM, snap cfsm.Snapshot, got cfsm.Reaction) error {
	want := m.React(snap)
	if got.Fired != want.Fired {
		return fmt.Errorf("vm/reference divergence: fired=%v, reference says %v", got.Fired, want.Fired)
	}
	if a, b := emissionKey(got.Emitted), emissionKey(want.Emitted); a != b {
		return fmt.Errorf("vm/reference divergence: emitted %s, reference %s", a, b)
	}
	for _, sv := range m.States {
		if got.NextState[sv] != want.NextState[sv] {
			return fmt.Errorf("vm/reference divergence: state %s=%d, reference %d",
				sv.Name, got.NextState[sv], want.NextState[sv])
		}
	}
	return nil
}

// emissionKey canonicalises an emission list as a sorted multiset.
func emissionKey(ems []cfsm.Emission) string {
	keys := make([]string, len(ems))
	for i, e := range ems {
		keys[i] = e.Signal.Name + ":" + strconv.FormatInt(e.Value, 10)
	}
	sort.Strings(keys)
	return "[" + strings.Join(keys, " ") + "]"
}

// checkCycles verifies the exact reaction cost against the analyzer's
// path bounds and the estimator's worst case.
func (t *vmTask) checkCycles(cycles int64) error {
	if cycles < t.bounds.Min || cycles > t.bounds.Max {
		return fmt.Errorf("cycle bound violation: exact %d outside analyzer bounds [%d, %d]",
			cycles, t.bounds.Min, t.bounds.Max)
	}
	if limit := int64(float64(t.estMax) * (1 + estimateSlack)); cycles > limit {
		return fmt.Errorf("cycle bound violation: exact %d exceeds estimator worst case %d by more than %.0f%%",
			cycles, t.estMax, estimateSlack*100)
	}
	return nil
}

// target is the profile every task is synthesized, run and timed on:
// Profile, or the pipeline's default target when Profile is nil.
func (o Options) target() *vm.Profile {
	if o.Profile == nil {
		return pipeline.DefaultTarget()
	}
	return o.Profile
}

// synthesis maps the simulation options onto the pipeline options
// every task is synthesized under.
func (o Options) synthesis() pipeline.Options {
	return pipeline.Options{
		Target:  o.target(),
		Reduce:  o.Reduce,
		Profile: o.Specialize,
	}
}

// BuildVMTask synthesizes a machine through the pipeline and returns
// its RTOS task, which runs the artifact's program, plus the program's
// code and data bytes on the profile.
func BuildVMTask(m *cfsm.CFSM, opt Options) (*rtos.Task, int64, int64, error) {
	return buildVMTask(context.Background(), m, opt)
}

// buildVMTask is BuildVMTask under a context.
func buildVMTask(ctx context.Context, m *cfsm.CFSM, opt Options) (*rtos.Task, int64, int64, error) {
	a, err := pipeline.SynthesizeModuleContext(ctx, m, opt.synthesis(), nil)
	if err != nil {
		return nil, 0, 0, err
	}
	prog := a.Program
	sigs := codegen.NewSignalMap(m)
	lay := cfsm.NewLayout(m)
	vt := &vmTask{
		m: m, prog: prog, lay: lay,
		entry:  codegen.EntryLabel(m),
		check:  opt.Check,
		bounds: a.Measured,
		estMax: a.Estimate.MaxCycles,
	}
	maxID := -1
	for _, id := range sigs {
		if id > maxID {
			maxID = id
		}
	}
	vt.sigOf = make([]*cfsm.Signal, maxID+1)
	vt.inSlot = make([]int, maxID+1)
	for i := range vt.inSlot {
		vt.inSlot[i] = -1
	}
	for s, id := range sigs {
		vt.sigOf[id] = s
		vt.inSlot[id] = lay.InSlot(s)
	}
	vt.stateAddr = make([]int, len(lay.States))
	for i, sv := range lay.States {
		vt.stateAddr[i] = codegen.StateAddr(prog, sv)
	}
	target := opt.target()
	vt.machine = vm.NewMachine(target, prog.Words, vt)
	codegen.InitStateMemory(m, prog, vt.machine)
	task := rtos.NewDenseTask(m, lay, vt.react, func() int64 { return vt.cycles })
	return task, int64(a.CodeSize), int64(target.DataSize(prog)), nil
}

// estimateTask synthesizes a machine's s-graph and estimates it: the
// worst case is what a Behavioral run charges per reaction, and the
// code and data bytes its footprint.
func estimateTask(ctx context.Context, m *cfsm.CFSM, opt Options) (estimate.Result, error) {
	sg, err := pipeline.SynthesizeGraph(ctx, m, opt.synthesis(), nil)
	if err != nil {
		return estimate.Result{}, err
	}
	params, err := estimate.CalibrateCached(opt.target())
	if err != nil {
		return estimate.Result{}, err
	}
	return estimate.EstimateSGraph(sg.SGraph, params, estimate.Options{}), nil
}

// Run simulates the network until the given cycle, injecting the
// stimuli at their times; stimuli at equal times keep their slice
// order, and those after until are ignored. Run never modifies the
// stimuli slice: unsorted input is sorted in a copy.
func Run(n *cfsm.Network, stimuli []Stimulus, until int64, opt Options) (*Result, error) {
	return RunContext(context.Background(), n, stimuli, until, opt)
}

// RunContext is Run with cancellation: the context is checked between
// stimuli and periodically inside the RTOS event loop, so a runaway or
// long simulation stops promptly with the context's error.
func RunContext(ctx context.Context, n *cfsm.Network, stimuli []Stimulus, until int64, opt Options) (*Result, error) {
	if opt.Partition {
		return runPartitioned(ctx, n, stimuli, until, opt)
	}
	return runSingle(ctx, n, stimuli, until, opt)
}

// The trace reservation rule: the first 1/tracePrefixDiv of the
// stimuli, and at least tracePrefixMin of them, measure the run's
// event rate, and the final length it projects gets a
// 1/traceMarginDiv margin.
const (
	tracePrefixDiv = 64
	tracePrefixMin = 256
	traceMarginDiv = 16
)

// tracePrefix returns how many of n stimuli measure the event rate.
// A shorter prefix underestimates it: the events of reactions still
// queued when the prefix ends are not recorded yet.
func tracePrefix(n int) int { return max(n/tracePrefixDiv, tracePrefixMin) + 1 }

// traceReserve returns the trace capacity for a run of total stimuli
// whose first done stimuli recorded events: the projection
// recorded × total / done plus its margin, and never less than one
// slot per remaining stimulus (each adds one environment event). A
// projection that falls short is caught by the trace's doubling.
func traceReserve(recorded, done, total int) int {
	proj := recorded * total / done
	return max(proj+proj/traceMarginDiv, recorded+total-done)
}

// runSingle simulates a network on one RTOS instance.
func runSingle(ctx context.Context, n *cfsm.Network, stimuli []Stimulus, until int64, opt Options) (*Result, error) {
	res := &Result{}
	mk := func(m *cfsm.CFSM) (*rtos.Task, error) {
		switch opt.Mode {
		case VMExact:
			t, code, data, err := buildVMTask(ctx, m, opt)
			if err != nil {
				return nil, err
			}
			res.CodeBytes += code
			res.DataBytes += data
			return t, nil
		default:
			est, err := estimateTask(ctx, m, opt)
			if err != nil {
				return nil, err
			}
			res.CodeBytes += est.CodeBytes
			res.DataBytes += est.DataBytes
			return rtos.NewBehavioralTask(m, func() int64 { return est.MaxCycles }), nil
		}
	}
	sys, err := rtos.NewSystem(n, opt.Cfg, mk)
	if err != nil {
		return nil, err
	}
	sys.Probe = opt.Probe
	sys.Ctx = ctx
	byTime := func(i, j int) bool { return stimuli[i].Time < stimuli[j].Time }
	if !sort.SliceIsSorted(stimuli, byTime) {
		stimuli = append([]Stimulus(nil), stimuli...)
		sort.SliceStable(stimuli, byTime)
	}
	stimuli = stimuli[:sort.Search(len(stimuli), func(i int) bool { return stimuli[i].Time > until })]
	// The trace is sized from the run's own event rate: only the first
	// stimuli get slots up front, and once they have run the trace is
	// reserved once for the length their rate projects (traceReserve).
	prefix := tracePrefix(len(stimuli))
	sys.ReserveTrace(min(prefix, len(stimuli)))
	for i, st := range stimuli {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := sys.Advance(st.Time); err != nil {
			return nil, err
		}
		if i == prefix {
			sys.ReserveTrace(traceReserve(len(sys.Trace), prefix, len(stimuli)))
		}
		if err := sys.EmitEnv(st.Signal, st.Value); err != nil {
			return nil, err
		}
	}
	if err := sys.Advance(until); err != nil {
		return nil, err
	}
	res.Trace = sys.Trace
	res.Cycles = sys.Now
	res.System = sys
	return res, nil
}

// Latencies returns, for every environment emission of in, the delay
// until the first subsequent non-environment emission of out.
func Latencies(trace []rtos.TraceEvent, in, out *cfsm.Signal) []int64 {
	var lats []int64
	for i, e := range trace {
		if e.Signal != in || e.From != "env" {
			continue
		}
		for _, f := range trace[i:] {
			if f.Signal == out && f.From != "env" && f.From != "poll" && f.Time >= e.Time {
				lats = append(lats, f.Time-e.Time)
				break
			}
		}
	}
	return lats
}

// MaxLatency returns the worst observed latency, or -1 when no pair
// matched.
func MaxLatency(trace []rtos.TraceEvent, in, out *cfsm.Signal) int64 {
	lats := Latencies(trace, in, out)
	if len(lats) == 0 {
		return -1
	}
	max := lats[0]
	for _, l := range lats[1:] {
		if l > max {
			max = l
		}
	}
	return max
}

// CountEmissions tallies non-environment emissions per signal.
func CountEmissions(trace []rtos.TraceEvent, sig *cfsm.Signal) int {
	n := 0
	for _, e := range trace {
		if e.Signal == sig && e.From != "env" && e.From != "poll" {
			n++
		}
	}
	return n
}

// PeriodicStimuli builds a pulse train for a signal.
func PeriodicStimuli(sig *cfsm.Signal, start, period, until int64, value func(i int) int64) []Stimulus {
	var out []Stimulus
	i := 0
	for t := start; t <= until; t += period {
		v := int64(0)
		if value != nil {
			v = value(i)
		}
		out = append(out, Stimulus{Time: t, Signal: sig, Value: v})
		i++
	}
	return out
}

// WriteTraceCSV renders a trace as CSV (time,signal,value,from) for
// offline analysis, mirroring the logging of the paper's simulation
// environment.
func WriteTraceCSV(w io.Writer, trace []rtos.TraceEvent) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time", "signal", "value", "from"}); err != nil {
		return err
	}
	for _, e := range trace {
		rec := []string{
			strconv.FormatInt(e.Time, 10),
			e.Signal.Name,
			strconv.FormatInt(e.Value, 10),
			e.From,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
