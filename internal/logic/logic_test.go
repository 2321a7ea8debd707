package logic

import (
	"math/rand"
	"sort"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/expr"
	"polis/internal/sgraph"
	"polis/internal/vm"
)

func simple() *cfsm.CFSM {
	c := cfsm.New("simple")
	in := c.AddInput("c", false)
	y := c.AddOutput("y", true)
	a := c.AddState("a", 0, 0)
	pc := c.Present(in)
	eq := c.Pred(expr.Eq(expr.V("a"), expr.V("?c")))
	c.AddTransition([]cfsm.Cond{cfsm.On(pc, 1), cfsm.On(eq, 1)},
		c.Assign(a, expr.C(0)), c.Emit(y))
	c.AddTransition([]cfsm.Cond{cfsm.On(pc, 1), cfsm.On(eq, 0)},
		c.Assign(a, expr.Add(expr.V("a"), expr.C(1))))
	return c
}

func counter() *cfsm.CFSM {
	c := cfsm.New("counter")
	tick := c.AddInput("tick", true)
	rst := c.AddInput("rst", true)
	out := c.AddOutput("wrap", false)
	st := c.AddState("st", 5, 0)
	p := c.Present(tick)
	pr := c.Present(rst)
	sel := c.Sel(st)
	for k := 0; k < 5; k++ {
		c.AddTransition([]cfsm.Cond{cfsm.On(pr, 1), cfsm.On(sel, k)},
			c.Assign(st, expr.C(0)))
	}
	for k := 0; k < 5; k++ {
		next := (k + 1) % 5
		acts := []*cfsm.Action{c.Assign(st, expr.C(int64(next)))}
		if next == 0 {
			acts = append(acts, c.EmitV(out, expr.Mul(expr.V("st"), expr.C(2))))
		}
		c.AddTransition([]cfsm.Cond{cfsm.On(pr, 0), cfsm.On(p, 1), cfsm.On(sel, k)},
			acts...)
	}
	return c
}

func buildNet(t *testing.T, c *cfsm.CFSM) *Network {
	t.Helper()
	r, err := cfsm.BuildReactive(c)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Build(r)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func randomSnap(c *cfsm.CFSM, rng *rand.Rand) cfsm.Snapshot {
	snap := c.NewSnapshot()
	for _, in := range c.Inputs {
		snap.Present[in] = rng.Intn(2) == 1
		if !in.Pure {
			snap.Values[in] = int64(rng.Intn(6))
		}
	}
	for _, sv := range c.States {
		if sv.Domain > 0 {
			snap.State[sv] = int64(rng.Intn(sv.Domain))
		} else {
			snap.State[sv] = int64(rng.Intn(6))
		}
	}
	return snap
}

// sameReaction compares reactions with emissions as multisets (the
// circuit executes actions in declaration order, which may permute
// emissions relative to the transition order).
func sameReaction(c *cfsm.CFSM, a, b cfsm.Reaction) bool {
	if len(a.Emitted) != len(b.Emitted) {
		return false
	}
	key := func(e cfsm.Emission) string { return e.Signal.Name + ":" + string(rune(e.Value)) }
	ka := make([]string, len(a.Emitted))
	kb := make([]string, len(b.Emitted))
	for i := range a.Emitted {
		ka[i] = key(a.Emitted[i])
		kb[i] = key(b.Emitted[i])
	}
	sort.Strings(ka)
	sort.Strings(kb)
	for i := range ka {
		if ka[i] != kb[i] {
			return false
		}
	}
	for _, sv := range c.States {
		if a.NextState[sv] != b.NextState[sv] {
			return false
		}
	}
	return true
}

func TestNetworkEvaluateMatchesReact(t *testing.T) {
	for _, c := range []*cfsm.CFSM{simple(), counter()} {
		n := buildNet(t, c)
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 300; i++ {
			snap := randomSnap(c, rng)
			want := c.React(snap)
			got := n.Evaluate(snap)
			if !sameReaction(c, want, got) {
				t.Fatalf("%s iter %d: react %+v vs circuit %+v", c.Name, i, want, got)
			}
		}
	}
}

func TestNetworkSharing(t *testing.T) {
	// Two actions with identical firing functions must share their
	// whole cone.
	c := cfsm.New("share")
	a := c.AddInput("a", true)
	b := c.AddInput("b", true)
	o1 := c.AddOutput("o1", true)
	o2 := c.AddOutput("o2", true)
	pa, pb := c.Present(a), c.Present(b)
	c.AddTransition([]cfsm.Cond{cfsm.On(pa, 1), cfsm.On(pb, 1)}, c.Emit(o1), c.Emit(o2))
	n := buildNet(t, c)
	if n.Outputs[0] != n.Outputs[1] {
		t.Error("identical firing functions must share one gate")
	}
}

func TestAssembleCircuitEquiv(t *testing.T) {
	for _, c := range []*cfsm.CFSM{simple(), counter()} {
		n := buildNet(t, c)
		sigs := codegen.NewSignalMap(c)
		p, err := Assemble(n, sigs, codegen.Options{})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		prof := vm.HC11()
		for i := 0; i < 200; i++ {
			snap := randomSnap(c, rng)
			want := n.Evaluate(snap)

			h := newSnapHost(sigs, snap)
			m := vm.NewMachine(prof, p.Words, h)
			for _, sv := range c.States {
				m.Mem[p.Symbols["st_"+sv.Name]] = snap.State[sv]
			}
			if _, err := m.Run(p, codegen.EntryLabel(c)); err != nil {
				t.Fatalf("%s: %v", c.Name, err)
			}
			got := cfsm.Reaction{NextState: map[*cfsm.StateVar]int64{}, Emitted: h.emitted}
			for _, sv := range c.States {
				got.NextState[sv] = m.Mem[p.Symbols["st_"+sv.Name]]
			}
			if !sameReaction(c, want, got) {
				t.Fatalf("%s iter %d: circuit eval vs vm mismatch", c.Name, i)
			}
		}
	}
}

// snapHost mirrors the codegen test host.
type snapHost struct {
	byID    map[int]*cfsm.Signal
	snap    cfsm.Snapshot
	emitted []cfsm.Emission
}

func newSnapHost(sigs codegen.SignalMap, snap cfsm.Snapshot) *snapHost {
	h := &snapHost{byID: make(map[int]*cfsm.Signal), snap: snap}
	for s, id := range sigs {
		h.byID[id] = s
	}
	return h
}

func (h *snapHost) Present(sig int) bool { return h.snap.Present[h.byID[sig]] }
func (h *snapHost) Value(sig int) int64  { return h.snap.Values[h.byID[sig]] }
func (h *snapHost) Emit(sig int) {
	h.emitted = append(h.emitted, cfsm.Emission{Signal: h.byID[sig]})
}
func (h *snapHost) EmitValue(sig int, v int64) {
	h.emitted = append(h.emitted, cfsm.Emission{Signal: h.byID[sig], Value: v})
}

// TestUniformCoreTiming verifies the paper's claim for this code
// style: with no data-dependent arithmetic, every execution of the
// routine whose actions are pure emissions takes a time independent of
// which tests are true (up to the action epilogue).
func TestUniformCoreTiming(t *testing.T) {
	c := cfsm.New("uni")
	a := c.AddInput("a", true)
	b := c.AddInput("b", true)
	o := c.AddOutput("o", true)
	pa, pb := c.Present(a), c.Present(b)
	c.AddTransition([]cfsm.Cond{cfsm.On(pa, 1), cfsm.On(pb, 0)}, c.Emit(o))
	n := buildNet(t, c)
	sigs := codegen.NewSignalMap(c)
	p, err := Assemble(n, sigs, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prof := vm.R3K()
	var witho, without int64
	{
		snap := c.NewSnapshot()
		snap.Present[a] = true
		h := newSnapHost(sigs, snap)
		m := vm.NewMachine(prof, p.Words, h)
		witho, _ = m.Run(p, codegen.EntryLabel(c))
	}
	{
		snap := c.NewSnapshot()
		h := newSnapHost(sigs, snap)
		m := vm.NewMachine(prof, p.Words, h)
		without, _ = m.Run(p, codegen.EntryLabel(c))
	}
	// The difference must be only the epilogue's taken-vs-not branch
	// and the one emission, bounded by a small constant.
	diff := witho - without
	if diff < 0 {
		diff = -diff
	}
	maxEpilogue := int64(prof.Cyc[vm.SVC] + prof.Cyc[vm.BRZ] + prof.TakenExtra + 4)
	if diff > maxEpilogue {
		t.Errorf("circuit timing varies too much: %d vs %d cycles", witho, without)
	}
}

// TestCircuitBiggerSlowerThanSGraph reproduces the paper's observation
// that the decision-tree (BDD) code is smaller and faster than the
// boolean-circuit code for control-dominated CFSMs.
func TestCircuitBiggerSlowerThanSGraph(t *testing.T) {
	c := counter()
	n := buildNet(t, c)
	sigs := codegen.NewSignalMap(c)
	circ, err := Assemble(n, sigs, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r, err := cfsm.BuildReactive(c)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sgraph.Build(r, sgraph.OrderSiftAfterSupport)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := codegen.Assemble(g, sigs, codegen.Options{})
	if err != nil {
		t.Fatal(err)
	}
	prof := vm.HC11()
	if prof.CodeSize(circ) <= prof.CodeSize(tree) {
		t.Errorf("circuit code (%d B) should exceed decision-tree code (%d B)",
			prof.CodeSize(circ), prof.CodeSize(tree))
	}
	ct, err := vm.AnalyzeCycles(prof, circ, codegen.EntryLabel(c))
	if err != nil {
		t.Fatal(err)
	}
	tt, err := vm.AnalyzeCycles(prof, tree, codegen.EntryLabel(c))
	if err != nil {
		t.Fatal(err)
	}
	if ct.Max <= tt.Max {
		t.Errorf("circuit worst case (%d cyc) should exceed tree worst case (%d cyc)",
			ct.Max, tt.Max)
	}
}
