package codegen

import (
	"math/rand"
	"strings"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/expr"
	"polis/internal/sgraph"
	"polis/internal/vm"
)

// snapHost exposes a CFSM snapshot to the VM and records emissions.
type snapHost struct {
	sigs    SignalMap
	byID    map[int]*cfsm.Signal
	snap    cfsm.Snapshot
	emitted []cfsm.Emission
}

func newSnapHost(sigs SignalMap, snap cfsm.Snapshot) *snapHost {
	h := &snapHost{sigs: sigs, byID: make(map[int]*cfsm.Signal), snap: snap}
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
		c.AddTransition(
			[]cfsm.Cond{cfsm.On(pr, 1), cfsm.On(sel, k)},
			c.Assign(st, expr.C(0)))
	}
	for k := 0; k < 5; k++ {
		next := (k + 1) % 5
		acts := []*cfsm.Action{c.Assign(st, expr.C(int64(next)))}
		if next == 0 {
			acts = append(acts, c.EmitV(out, expr.Mul(expr.V("st"), expr.C(2))))
		}
		c.AddTransition(
			[]cfsm.Cond{cfsm.On(pr, 0), cfsm.On(p, 1), cfsm.On(sel, k)},
			acts...)
	}
	return c
}

// swapper needs copy-on-entry: it exchanges two variables.
func swapper() *cfsm.CFSM {
	c := cfsm.New("swapper")
	go_ := c.AddInput("go", true)
	x := c.AddState("x", 0, 1)
	y := c.AddState("y", 0, 2)
	p := c.Present(go_)
	c.AddTransition([]cfsm.Cond{cfsm.On(p, 1)},
		c.Assign(x, expr.V("y")),
		c.Assign(y, expr.V("x")))
	return c
}

func buildSG(t *testing.T, c *cfsm.CFSM, ord sgraph.Ordering) *sgraph.SGraph {
	t.Helper()
	r, err := cfsm.BuildReactive(c)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sgraph.Build(r, ord)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// runVM executes one reaction on the VM from the given snapshot and
// returns the emissions and resulting state values.
func runVM(t *testing.T, g *sgraph.SGraph, p *vm.Program, prof *vm.Profile,
	snap cfsm.Snapshot, sigs SignalMap) ([]cfsm.Emission, map[*cfsm.StateVar]int64) {
	t.Helper()
	h := newSnapHost(sigs, snap)
	m := vm.NewMachine(prof, p.Words, h)
	InitStateMemory(g.C, p, m)
	for _, sv := range g.C.States {
		m.Mem[p.Symbols["st_"+sv.Name]] = snap.State[sv]
	}
	if _, err := m.Run(p, EntryLabel(g.C)); err != nil {
		t.Fatalf("vm run: %v\n%s", err, p.Listing())
	}
	state := make(map[*cfsm.StateVar]int64)
	for _, sv := range g.C.States {
		state[sv] = m.Mem[p.Symbols["st_"+sv.Name]]
	}
	return h.emitted, state
}

// checkVMEquiv compares VM execution with the s-graph interpreter on
// random snapshots.
func checkVMEquiv(t *testing.T, c *cfsm.CFSM, opts Options, seed int64) {
	t.Helper()
	g := buildSG(t, c, sgraph.OrderSiftAfterSupport)
	sigs := NewSignalMap(c)
	p, err := Assemble(g, sigs, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for _, prof := range []*vm.Profile{vm.HC11(), vm.R3K()} {
		for i := 0; i < 150; i++ {
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
			want := g.Evaluate(snap)
			gotEm, gotState := runVM(t, g, p, prof, snap, sigs)
			if len(want.Emitted) != len(gotEm) {
				t.Fatalf("%s iter %d: emissions %v vs %v", prof.Name, i, want.Emitted, gotEm)
			}
			for j := range want.Emitted {
				if want.Emitted[j].Signal != gotEm[j].Signal || want.Emitted[j].Value != gotEm[j].Value {
					t.Fatalf("%s iter %d: emission %d differs: %+v vs %+v",
						prof.Name, i, j, want.Emitted[j], gotEm[j])
				}
			}
			for _, sv := range c.States {
				if want.NextState[sv] != gotState[sv] {
					t.Fatalf("%s iter %d: state %s: want %d got %d",
						prof.Name, i, sv.Name, want.NextState[sv], gotState[sv])
				}
			}
		}
	}
}

func TestAssembleSimpleEquiv(t *testing.T) {
	checkVMEquiv(t, simple(), Options{}, 3)
}

func TestAssembleCounterEquiv(t *testing.T) {
	checkVMEquiv(t, counter(), Options{}, 5)
}

func TestAssembleSwapperEquiv(t *testing.T) {
	checkVMEquiv(t, swapper(), Options{}, 7)
	checkVMEquiv(t, swapper(), Options{OptimizeCopies: true}, 9)
}

func TestAssembleWithJumpTables(t *testing.T) {
	checkVMEquiv(t, counter(), Options{IfThreshold: 1}, 11)
}

func TestAssembleWithIfChains(t *testing.T) {
	checkVMEquiv(t, counter(), Options{IfThreshold: 100}, 13)
}

func TestCollapsedGraphAssembles(t *testing.T) {
	c := counter()
	g := buildSG(t, c, sgraph.OrderSiftAfterSupport)
	g.CollapseTests(32)
	sigs := NewSignalMap(c)
	p, err := Assemble(g, sigs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	prof := vm.HC11()
	for i := 0; i < 100; i++ {
		snap := c.NewSnapshot()
		for _, in := range c.Inputs {
			snap.Present[in] = rng.Intn(2) == 1
		}
		for _, sv := range c.States {
			snap.State[sv] = int64(rng.Intn(sv.Domain))
		}
		want := g.Evaluate(snap)
		gotEm, gotState := runVM(t, g, p, prof, snap, sigs)
		if len(want.Emitted) != len(gotEm) {
			t.Fatalf("iter %d: emissions differ", i)
		}
		for _, sv := range c.States {
			if want.NextState[sv] != gotState[sv] {
				t.Fatalf("iter %d: state differs", i)
			}
		}
	}
}

func TestCopyAnalysis(t *testing.T) {
	// swapper writes x then (on the same path) reads x for y := x, so
	// x needs a copy; simple's a := a + 1 reads before any write on
	// the path, so no copy is required.
	gs := buildSG(t, swapper(), sgraph.OrderSiftAfterSupport)
	plan := NewRoutine(gs, Options{}).Plan
	needNames := map[string]bool{}
	for sv, need := range plan.NeedCopy {
		if need {
			needNames[sv.Name] = true
		}
	}
	if !needNames["x"] && !needNames["y"] {
		t.Errorf("swapper: expected x or y to need a copy, got %v", needNames)
	}

	gsimple := buildSG(t, simple(), sgraph.OrderSiftAfterSupport)
	plan2 := NewRoutine(gsimple, Options{}).Plan
	for sv, need := range plan2.NeedCopy {
		if need {
			t.Errorf("simple: %s should not need a copy", sv.Name)
		}
	}
	// But its input value is read.
	found := false
	for sig, r := range plan2.ValueRead {
		if r && sig.Name == "c" {
			found = true
		}
	}
	if !found {
		t.Error("simple: value of c must be marked read")
	}
}

func TestOptimizeCopiesShrinksCode(t *testing.T) {
	c := simple()
	g := buildSG(t, c, sgraph.OrderSiftAfterSupport)
	sigs := NewSignalMap(c)
	pFull, err := Assemble(g, sigs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pOpt, err := Assemble(g, sigs, Options{OptimizeCopies: true})
	if err != nil {
		t.Fatal(err)
	}
	prof := vm.HC11()
	if prof.CodeSize(pOpt) >= prof.CodeSize(pFull) {
		t.Errorf("optimized copies must shrink code: %d vs %d",
			prof.CodeSize(pOpt), prof.CodeSize(pFull))
	}
	if pOpt.Words >= pFull.Words {
		t.Errorf("optimized copies must shrink data: %d vs %d words",
			pOpt.Words, pFull.Words)
	}
}

func TestEmitCSimple(t *testing.T) {
	c := simple()
	g := buildSG(t, c, sgraph.OrderSiftAfterSupport)
	src := EmitC(g, Options{})
	for _, needle := range []string{
		"void simple_react(void)",
		"PRESENT(c)",
		"EMIT(y)",
		"st_a =",
		"goto L",
		"int val_c = VALUE(c);",
		"#pragma cfsm simple",
	} {
		if !strings.Contains(src, needle) {
			t.Errorf("C output missing %q:\n%s", needle, src)
		}
	}
}

func TestEmitCSelectorSwitch(t *testing.T) {
	c := counter()
	g := buildSG(t, c, sgraph.OrderSiftAfterSupport)
	src := EmitC(g, Options{IfThreshold: 2})
	if !strings.Contains(src, "switch (") {
		t.Errorf("expected a switch for the 5-way selector:\n%s", src)
	}
	src2 := EmitC(g, Options{IfThreshold: 100})
	if strings.Contains(src2, "switch (") {
		t.Error("IfThreshold=100 must avoid switch statements")
	}
}

func TestRTOSHeader(t *testing.T) {
	h := RTOSHeader()
	for _, needle := range []string{"PRESENT", "EMIT_VALUE", "polis_emit", "DIV"} {
		if !strings.Contains(h, needle) {
			t.Errorf("header missing %q", needle)
		}
	}
}

// TestEmitCLibraryNamedStates: state variables named like the safe
// library calls (MIN, DIV) are renamed where they are read, and the
// calls themselves keep their names.
func TestEmitCLibraryNamedStates(t *testing.T) {
	c := cfsm.New("lib")
	tick := c.AddInput("tick", true)
	c.AddInput("v", false)
	minSt := c.AddState("MIN", 0, 0)
	divSt := c.AddState("DIV", 0, 1)
	c.AddState("y", 0, 0)
	p := c.Present(tick)
	c.AddTransition([]cfsm.Cond{cfsm.On(p, 1)},
		c.Assign(minSt, expr.Min(expr.V("MIN"), expr.V("y"))),
		c.Assign(divSt, expr.Div(expr.V("DIV"), expr.V("?v"))))
	src := EmitC(buildSG(t, c, sgraph.OrderSiftAfterSupport), Options{})
	for _, needle := range []string{
		"st_MIN = MIN(cur_MIN, cur_y);",
		"st_DIV = DIV(cur_DIV, val_v);",
	} {
		if !strings.Contains(src, needle) {
			t.Errorf("C output missing %q:\n%s", needle, src)
		}
	}
	for _, bad := range []string{"cur_MIN(", "cur_DIV(", "st_MIN(", "st_DIV("} {
		if strings.Contains(src, bad) {
			t.Errorf("C output renames a library call, has %q:\n%s", bad, src)
		}
	}
}

// TestEmitCRefNames: only whole references are renamed. A state whose
// name prefixes another state's keeps them apart, and an input value
// ?a is not the state a.
func TestEmitCRefNames(t *testing.T) {
	c := cfsm.New("names")
	in := c.AddInput("a", false)
	a := c.AddState("a", 0, 0)
	c.AddState("ab", 0, 0)
	p := c.Present(in)
	c.AddTransition([]cfsm.Cond{cfsm.On(p, 1)},
		c.Assign(a, expr.Add(expr.Add(expr.V("a"), expr.V("ab")), expr.Add(expr.V("?a"), expr.V("a")))))
	src := EmitC(buildSG(t, c, sgraph.OrderSiftAfterSupport), Options{})
	want := "st_a = ((cur_a + cur_ab) + (val_a + cur_a));"
	if !strings.Contains(src, want) {
		t.Errorf("C output missing %q:\n%s", want, src)
	}
}

func TestDeepExpressionSpill(t *testing.T) {
	// A deeply nested expression exercises the temp-spill schema.
	c := cfsm.New("deep")
	in := c.AddInput("v", false)
	o := c.AddOutput("o", false)
	p := c.Present(in)
	e := expr.Expr(expr.V("?v"))
	for i := 0; i < 6; i++ {
		e = expr.Add(expr.Mul(e, expr.C(2)), expr.C(int64(i)))
	}
	c.AddTransition([]cfsm.Cond{cfsm.On(p, 1)}, c.EmitV(o, e))
	checkVMEquiv(t, c, Options{}, 19)
}

func TestSignalMapStable(t *testing.T) {
	c := simple()
	m1 := NewSignalMap(c)
	m2 := NewSignalMap(c)
	for s, id := range m1 {
		if m2[s] != id {
			t.Error("signal map not deterministic")
		}
	}
}

func TestEmitCCollapsedMultiTest(t *testing.T) {
	// Collapsed TEST vertices carry several tests; the C emitter must
	// build the combined outcome index expression.
	c := counter()
	g := buildSG(t, c, sgraph.OrderSiftAfterSupport)
	merged := g.CollapseTests(64)
	if merged == 0 {
		t.Skip("no collapse opportunity on this machine")
	}
	src := EmitC(g, Options{})
	if !strings.Contains(src, ") * ") || !strings.Contains(src, "!!(") {
		t.Errorf("combined index expression missing:\n%s", src)
	}
	if strings.Count(src, "{") != strings.Count(src, "}") {
		t.Error("unbalanced braces")
	}
}

// exclusiveTimer builds a machine whose MarkExclusive care set lets
// the s-graph reduction engine eliminate a TEST: the two threshold
// predicates cnt==49 and cnt==149 can never hold together, so the
// inner one is redundant on the path where the outer already fired.
func exclusiveTimer() *cfsm.CFSM {
	c := cfsm.New("extimer")
	start := c.AddInput("start", true)
	tick := c.AddInput("tick", true)
	end5 := c.AddOutput("end5", true)
	end10 := c.AddOutput("end10", true)
	on := c.AddState("on", 2, 0)
	cnt := c.AddState("cnt", 0, 0)
	sel := c.Sel(on)
	pStart := c.Present(start)
	pTick := c.Present(tick)
	at50 := c.Pred(expr.Eq(expr.V("cnt"), expr.C(49)))
	at150 := c.Pred(expr.Eq(expr.V("cnt"), expr.C(149)))
	c.MarkExclusive(at50, at150)
	c.AddTransition([]cfsm.Cond{cfsm.On(sel, 0), cfsm.On(pStart, 1)},
		c.Assign(on, expr.C(1)), c.Assign(cnt, expr.C(0)))
	c.AddTransition([]cfsm.Cond{cfsm.On(sel, 1), cfsm.On(pTick, 1), cfsm.On(at50, 1)},
		c.Emit(end5), c.Assign(cnt, expr.Add(expr.V("cnt"), expr.C(1))))
	c.AddTransition([]cfsm.Cond{cfsm.On(sel, 1), cfsm.On(pTick, 1), cfsm.On(at150, 1)},
		c.Emit(end10), c.Assign(on, expr.C(0)), c.Assign(cnt, expr.C(0)))
	c.AddTransition(
		[]cfsm.Cond{cfsm.On(sel, 1), cfsm.On(pTick, 1), cfsm.On(at50, 0), cfsm.On(at150, 0)},
		c.Assign(cnt, expr.Add(expr.V("cnt"), expr.C(1))))
	return c
}

// TestReducedGraphAssembles gates the reduction engine at the object
// code layer: a reduced s-graph must still assemble, the VM must match
// the s-graph interpreter on it, and for a machine where the care set
// actually removes a TEST the reduced code must not be larger.
func TestReducedGraphAssembles(t *testing.T) {
	prof := vm.HC11()
	for _, tc := range []struct {
		c        *cfsm.CFSM
		wantElim bool
	}{
		{counter(), false},
		{exclusiveTimer(), true},
	} {
		c := tc.c
		plain := buildSG(t, c, sgraph.OrderSiftAfterSupport)
		sigs := NewSignalMap(c)
		pPlain, err := Assemble(plain, sigs, Options{})
		if err != nil {
			t.Fatal(err)
		}

		g := buildSG(t, c, sgraph.OrderSiftAfterSupport)
		stats := g.Reduce(sgraph.ReduceOptions{})
		if tc.wantElim && stats.TestsEliminated == 0 {
			t.Fatalf("%s: reduction eliminated no TEST: %s", c.Name, stats.String())
		}
		p, err := Assemble(g, sigs, Options{})
		if err != nil {
			t.Fatalf("%s: assemble reduced graph: %v", c.Name, err)
		}
		if stats.Changed() && prof.CodeSize(p) > prof.CodeSize(pPlain) {
			t.Errorf("%s: reduced code grew: %d > %d bytes",
				c.Name, prof.CodeSize(p), prof.CodeSize(pPlain))
		}

		rng := rand.New(rand.NewSource(23))
		cntVals := []int64{0, 1, 48, 49, 50, 149, 150}
		for i := 0; i < 150; i++ {
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
					snap.State[sv] = cntVals[rng.Intn(len(cntVals))]
				}
			}
			want := g.Evaluate(snap)
			gotEm, gotState := runVM(t, g, p, prof, snap, sigs)
			if len(want.Emitted) != len(gotEm) {
				t.Fatalf("%s iter %d: emissions %v vs %v", c.Name, i, want.Emitted, gotEm)
			}
			for j := range want.Emitted {
				if want.Emitted[j].Signal != gotEm[j].Signal || want.Emitted[j].Value != gotEm[j].Value {
					t.Fatalf("%s iter %d: emission %d differs", c.Name, i, j)
				}
			}
			for _, sv := range c.States {
				if want.NextState[sv] != gotState[sv] {
					t.Fatalf("%s iter %d: state %s: want %d got %d",
						c.Name, i, sv.Name, want.NextState[sv], gotState[sv])
				}
			}
		}
	}
}
