// Package randcfsm generates random deterministic CFSMs for
// cross-implementation differential testing: the reference interpreter,
// the s-graph under every ordering, the boolean-circuit code, the
// two-level jump baseline and the virtual-machine executions of each
// must all agree on every snapshot.
package randcfsm

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"

	"polis/internal/cfsm"
	"polis/internal/expr"
	"polis/internal/names"
)

// Config bounds the generated machines.
type Config struct {
	MaxInputs      int // >=1; mix of pure and valued
	MaxOutputs     int // >=1
	MaxControlVars int // selector state variables
	MaxDataVars    int // integer state variables
	MaxTransitions int
	ValueRange     int64 // input values and constants in [0, ValueRange)
}

// DefaultConfig returns modest bounds that keep exhaustive checking
// cheap.
func DefaultConfig() Config {
	return Config{
		MaxInputs:      3,
		MaxOutputs:     3,
		MaxControlVars: 2,
		MaxDataVars:    2,
		MaxTransitions: 8,
		ValueRange:     5,
	}
}

// Scaled returns DefaultConfig with every structural bound multiplied
// by factor (clamped to >= 1). It is the per-module cost knob of the
// randcfsm-driven synthesis benchmarks: NewNetwork's n scales module
// count, Scaled grows each module's test/action/transition pools so
// synthesis cost per module rises too.
func Scaled(factor int) Config {
	if factor < 1 {
		factor = 1
	}
	cfg := DefaultConfig()
	cfg.MaxInputs *= factor
	cfg.MaxOutputs *= factor
	cfg.MaxControlVars *= factor
	cfg.MaxDataVars *= factor
	cfg.MaxTransitions *= factor
	cfg.ValueRange *= int64(factor)
	return cfg
}

// nameWidth is the zero-padding width for machine names in an n-module
// network: wide enough for n-1, never narrower than the historical 2,
// so networks of up to 100 modules keep their m00..m99 names (and
// therefore their fingerprints) byte-identical across versions while
// larger benchmarks (m000...) stay uniformly padded.
func nameWidth(n int) int {
	w := len(strconv.Itoa(n - 1))
	if w < 2 {
		w = 2
	}
	return w
}

// Machine bundles a generated CFSM with handles the checker needs.
type Machine struct {
	C       *cfsm.CFSM
	Inputs  []*cfsm.Signal
	Outputs []*cfsm.Signal
	Rng     *rand.Rand
	Range   int64
}

// New generates a random deterministic machine. Determinism is
// guaranteed structurally: transitions are built from a random
// decision tree over the machine's tests, so guards are pairwise
// disjoint by construction.
func New(r *rand.Rand, cfg Config) *Machine {
	c := cfsm.New(fmt.Sprintf("rand%d", r.Intn(1<<30)))
	return generate(r, cfg, c, "", c.AddInput, c.AddOutput, nil, nil)
}

// NewInNetwork generates a random machine with the given name whose
// signals are created at network level and attached to the machine, so
// the machine is registered in net and the network validates. Signal
// and state-variable names are prefixed with the machine name to keep
// them network-unique. The machines of one network are independent
// (no shared signals): the generator's purpose is whole-network
// synthesis benchmarking, where the per-machine flows never interact.
func NewInNetwork(r *rand.Rand, net *cfsm.Network, name string, cfg Config) (*Machine, error) {
	return newInNetwork(r, net, name, cfg, nil, nil)
}

// newInNetwork is NewInNetwork with wired signals: extraIn/extraOut
// are existing network signals attached to the machine before the
// transition relation is generated, so they participate in guards and
// emissions exactly like the machine's own signals.
func newInNetwork(r *rand.Rand, net *cfsm.Network, name string, cfg Config,
	extraIn, extraOut []*cfsm.Signal) (*Machine, error) {
	c := cfsm.New(name)
	addIn := func(n string, pure bool) *cfsm.Signal {
		return c.AttachInput(net.NewSignal(name+"_"+n, pure))
	}
	addOut := func(n string, pure bool) *cfsm.Signal {
		return c.AttachOutput(net.NewSignal(name+"_"+n, pure))
	}
	m := generate(r, cfg, c, name+"_", addIn, addOut, extraIn, extraOut)
	if err := net.Add(c); err != nil {
		return nil, err
	}
	return m, nil
}

// NewNetwork generates a network of n independent random machines
// (named m00, m01, ...) for parallel-synthesis benchmarks.
func NewNetwork(r *rand.Rand, n int, cfg Config) (*cfsm.Network, []*Machine, error) {
	net := cfsm.NewNetwork(fmt.Sprintf("randnet%d", n))
	w := nameWidth(n)
	machines := make([]*Machine, 0, n)
	for i := 0; i < n; i++ {
		m, err := NewInNetwork(r, net, fmt.Sprintf("m%0*d", w, i), cfg)
		if err != nil {
			return nil, nil, err
		}
		machines = append(machines, m)
	}
	if err := net.Validate(); err != nil {
		return nil, nil, err
	}
	return net, machines, nil
}

// generate is the shared machine-construction body; addIn/addOut
// abstract whether signals are machine-local or network-level, and
// prefix keeps state-variable names unique within a network.
// extraIn/extraOut (both usually nil) are pre-existing wired signals;
// they are attached without consuming the rng stream, so unwired
// callers generate byte-identical machines across versions.
func generate(r *rand.Rand, cfg Config, c *cfsm.CFSM, prefix string,
	addIn, addOut func(name string, pure bool) *cfsm.Signal,
	extraIn, extraOut []*cfsm.Signal) *Machine {
	m := &Machine{C: c, Rng: r, Range: cfg.ValueRange}

	nin := 1 + r.Intn(cfg.MaxInputs)
	for i := 0; i < nin; i++ {
		pure := r.Intn(2) == 0
		m.Inputs = append(m.Inputs, addIn(fmt.Sprintf("i%d", i), pure))
	}
	for _, s := range extraIn {
		m.Inputs = append(m.Inputs, c.AttachInput(s))
	}
	nout := 1 + r.Intn(cfg.MaxOutputs)
	for i := 0; i < nout; i++ {
		pure := r.Intn(2) == 0
		m.Outputs = append(m.Outputs, addOut(fmt.Sprintf("o%d", i), pure))
	}
	for _, s := range extraOut {
		m.Outputs = append(m.Outputs, c.AttachOutput(s))
	}
	var ctrl []*cfsm.StateVar
	for i := 0; i < r.Intn(cfg.MaxControlVars+1); i++ {
		ctrl = append(ctrl, c.AddState(fmt.Sprintf("%sq%d", prefix, i), 2+r.Intn(3), int64(r.Intn(2))))
	}
	var data []*cfsm.StateVar
	for i := 0; i < r.Intn(cfg.MaxDataVars+1); i++ {
		data = append(data, c.AddState(fmt.Sprintf("%sd%d", prefix, i), 0, int64(r.Intn(int(cfg.ValueRange)))))
	}

	// The test pool.
	var tests []*cfsm.Test
	for _, in := range m.Inputs {
		tests = append(tests, c.Present(in))
	}
	for _, sv := range ctrl {
		tests = append(tests, c.Sel(sv))
	}
	for _, sv := range data {
		tests = append(tests, c.Pred(expr.Lt(expr.V(sv.Name), expr.C(1+r.Int63n(cfg.ValueRange)))))
	}
	for _, in := range m.Inputs {
		if !in.Pure && r.Intn(2) == 0 {
			tests = append(tests, c.Pred(expr.Ge(expr.EventValue(in.Name), expr.C(r.Int63n(cfg.ValueRange)))))
		}
	}

	m.growTransitions(r, ctrl, data, tests, cfg.MaxTransitions)
	return m
}

// growTransitions builds a random decision tree over distinct tests;
// each leaf either has no transition or a random action list.
// Disjointness of the leaves' guards makes the machine deterministic.
// At least one transition is always produced.
func (m *Machine) growTransitions(r *rand.Rand, ctrl, data []*cfsm.StateVar,
	tests []*cfsm.Test, budget int) {
	c := m.C
	var grow func(avail []*cfsm.Test, guard []cfsm.Cond, depth int)
	grow = func(avail []*cfsm.Test, guard []cfsm.Cond, depth int) {
		if budget <= 0 {
			return
		}
		if len(avail) == 0 || depth >= 3 || r.Intn(3) == 0 {
			// Leaf: 2-in-3 chance of a transition.
			if r.Intn(3) != 0 && len(guard) > 0 {
				acts := m.randActions(r, ctrl, data)
				if len(acts) > 0 {
					c.AddTransition(append([]cfsm.Cond(nil), guard...), acts...)
					budget--
				}
			}
			return
		}
		ti := r.Intn(len(avail))
		t := avail[ti]
		rest := append(append([]*cfsm.Test(nil), avail[:ti]...), avail[ti+1:]...)
		for v := 0; v < t.Arity(); v++ {
			grow(rest, append(guard, cfsm.On(t, v)), depth+1)
		}
	}
	grow(tests, nil, 0)
	if len(c.Trans) == 0 {
		// Guarantee at least one behaviour.
		c.AddTransition([]cfsm.Cond{cfsm.On(tests[0], 1)}, m.randActions(r, ctrl, data)...)
	}
}

// stateSplit partitions the machine's state variables the way generate
// created them: control variables (finite domain) versus data.
func (m *Machine) stateSplit() (ctrl, data []*cfsm.StateVar) {
	for _, sv := range m.C.States {
		if sv.Domain > 0 {
			ctrl = append(ctrl, sv)
		} else {
			data = append(data, sv)
		}
	}
	return ctrl, data
}

// transKey renders the transition relation (and the test pool it draws
// from) in the same structural terms the pipeline's content-addressed
// fingerprint hashes, so "transKey changed" implies "fingerprint
// changed".
func transKey(c *cfsm.CFSM) string {
	var b strings.Builder
	for _, t := range c.Tests {
		fmt.Fprintf(&b, "t %s/%d\n", t.Name(), t.Arity())
	}
	for _, tr := range c.Trans {
		for _, cond := range tr.Guard {
			fmt.Fprintf(&b, " %d=%d", c.TestID(cond.Test), cond.Val)
		}
		b.WriteString(" ->")
		for _, a := range tr.Actions {
			fmt.Fprintf(&b, " %d", c.ActionID(a))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Mutate edits the machine in place the way a designer iterating on a
// specification would: the transition relation is regrown from the
// machine's existing test and state-variable pools, guaranteeing the
// module's reactive function — and therefore its content-addressed
// fingerprint — changes while the network wiring (signals, states,
// interned tests of other machines) is untouched. This is the
// incremental-resynthesis workload driver: mutate one machine of a
// network, resubmit, and only that machine should miss the cache.
//
// The rng is taken explicitly (not m.Rng) so concurrent load
// generators can mutate machines of disjoint networks without sharing
// rng state.
func Mutate(r *rand.Rand, m *Machine) {
	c := m.C
	ctrl, data := m.stateSplit()
	old := transKey(c)
	budget := len(c.Trans)
	if budget < 4 {
		budget = 4
	}
	for try := 0; try < 8; try++ {
		c.Trans = nil
		m.growTransitions(r, ctrl, data, append([]*cfsm.Test(nil), c.Tests...), budget)
		if transKey(c) != old {
			return
		}
	}
	// Degenerate pools can regrow the same relation every time; force a
	// visible edit with a fresh predicate test (new tests always change
	// the fingerprint).
	var operand expr.Expr = expr.C(1)
	if len(data) > 0 {
		operand = expr.V(data[0].Name)
	}
	t := c.Pred(expr.Ge(operand, expr.C(r.Int63n(m.Range+1)+m.Range)))
	acts := m.randActions(r, ctrl, data)
	if len(acts) == 0 && len(m.Outputs) > 0 {
		out := m.Outputs[0]
		if out.Pure {
			acts = append(acts, c.Emit(out))
		} else {
			acts = append(acts, c.EmitV(out, expr.C(0)))
		}
	}
	c.AddTransition([]cfsm.Cond{cfsm.On(t, 1)}, acts...)
}

// Topology selects how the machines of a generated network are wired.
type Topology int

// Topologies.
const (
	// TopoIndependent leaves machines unconnected — the original
	// whole-network synthesis benchmark shape.
	TopoIndependent Topology = iota
	// TopoChain wires machine i's link output to machine i+1's link
	// input: at most one internal event is in flight per environment
	// stimulus, so spaced stimuli give scheduling-independent traces.
	TopoChain
	// TopoDAG wires every machine (after the first) to one or two
	// random earlier machines with fan-out allowed: converging
	// cascades race at shared readers and exercise freeze-window
	// merging and one-place-buffer overwrites.
	TopoDAG
)

// topologyNames is the name table of the topologies, indexed by
// Topology.
var topologyNames = []string{TopoIndependent: "independent", TopoChain: "chain", TopoDAG: "dag"}

func (t Topology) String() string { return names.Name(topologyNames, t) }

// ParseTopology resolves a topology by name: "independent", "chain" or
// "dag".
func ParseTopology(name string) (Topology, error) {
	return names.Parse[Topology]("topology", topologyNames, name)
}

// NewTopologyNetwork generates a network of n random machines wired
// per the topology: link signals are created at network level and take
// part in the readers' guards and the writers' emissions, making the
// network genuinely GALS — internal events cross the one-place-buffer
// channels of Section II.
func NewTopologyNetwork(r *rand.Rand, n int, cfg Config, topo Topology) (*cfsm.Network, []*Machine, error) {
	if topo == TopoIndependent {
		return NewNetwork(r, n, cfg)
	}
	net := cfsm.NewNetwork(fmt.Sprintf("randnet%d%s", n, topo))
	w := nameWidth(n)
	// One link output per machine (the chain's last machine has none);
	// pure or valued at random so both event flavours cross channels.
	links := make([]*cfsm.Signal, n)
	for i := range links {
		if topo == TopoChain && i == n-1 {
			break
		}
		links[i] = net.NewSignal(fmt.Sprintf("m%0*d_lnk", w, i), r.Intn(2) == 0)
	}
	machines := make([]*Machine, 0, n)
	for i := 0; i < n; i++ {
		var extraIn, extraOut []*cfsm.Signal
		switch topo {
		case TopoChain:
			if i > 0 {
				extraIn = append(extraIn, links[i-1])
			}
			if links[i] != nil {
				extraOut = append(extraOut, links[i])
			}
		case TopoDAG:
			if i > 0 {
				picked := map[*cfsm.Signal]bool{}
				for k := 1 + r.Intn(2); k > 0; k-- {
					src := links[r.Intn(i)]
					if !picked[src] {
						picked[src] = true
						extraIn = append(extraIn, src)
					}
				}
			}
			extraOut = append(extraOut, links[i])
		}
		m, err := newInNetwork(r, net, fmt.Sprintf("m%0*d", w, i), cfg, extraIn, extraOut)
		if err != nil {
			return nil, nil, err
		}
		machines = append(machines, m)
	}
	if err := net.Validate(); err != nil {
		return nil, nil, err
	}
	return net, machines, nil
}

// randActions builds a non-conflicting action list.
func (m *Machine) randActions(r *rand.Rand, ctrl, data []*cfsm.StateVar) []*cfsm.Action {
	c := m.C
	var acts []*cfsm.Action
	assigned := map[*cfsm.StateVar]bool{}
	n := 1 + r.Intn(3)
	for i := 0; i < n; i++ {
		switch r.Intn(3) {
		case 0: // emit
			out := m.Outputs[r.Intn(len(m.Outputs))]
			if out.Pure {
				acts = append(acts, c.Emit(out))
			} else {
				acts = append(acts, c.EmitV(out, m.randExpr(data, 2)))
			}
		case 1: // control assignment
			if len(ctrl) == 0 {
				continue
			}
			sv := ctrl[r.Intn(len(ctrl))]
			if assigned[sv] {
				continue
			}
			assigned[sv] = true
			acts = append(acts, c.Assign(sv, expr.C(int64(r.Intn(sv.Domain)))))
		default: // data assignment
			if len(data) == 0 {
				continue
			}
			sv := data[r.Intn(len(data))]
			if assigned[sv] {
				continue
			}
			assigned[sv] = true
			acts = append(acts, c.Assign(sv, m.randExpr(data, 2)))
		}
	}
	// Deduplicate interned actions (the same emit may repeat).
	seen := map[*cfsm.Action]bool{}
	var out []*cfsm.Action
	for _, a := range acts {
		if !seen[a] {
			seen[a] = true
			out = append(out, a)
		}
	}
	return out
}

// randExpr builds a small side-effect-free expression over data vars,
// input values and constants.
func (m *Machine) randExpr(data []*cfsm.StateVar, depth int) expr.Expr {
	r := m.Rng
	if depth <= 0 || r.Intn(3) == 0 {
		switch r.Intn(3) {
		case 0:
			return expr.C(r.Int63n(m.Range))
		case 1:
			if len(data) > 0 {
				return expr.V(data[r.Intn(len(data))].Name)
			}
			return expr.C(r.Int63n(m.Range))
		default:
			for _, in := range m.Inputs {
				if !in.Pure && r.Intn(2) == 0 {
					return expr.EventValue(in.Name)
				}
			}
			return expr.C(r.Int63n(m.Range))
		}
	}
	ops := []func(a, b expr.Expr) expr.Expr{expr.Add, expr.Sub, expr.Mul, expr.Min, expr.Max, expr.Div, expr.Mod}
	op := ops[r.Intn(len(ops))]
	return op(m.randExpr(data, depth-1), m.randExpr(data, depth-1))
}
