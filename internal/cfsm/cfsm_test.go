package cfsm

import (
	"math/rand"
	"strings"
	"testing"

	"polis/internal/expr"
)

// simpleCFSM builds the paper's Fig. 1 example:
//
//	module simple:
//	  input c : integer; output y;
//	  var a : integer in
//	  loop await c;
//	    if a = ?c then a := 0; emit y; else a := a + 1; end if
//	  end loop end var
//	end module
func simpleCFSM() (*CFSM, *Signal, *Signal, *StateVar) {
	c := New("simple")
	in := c.AddInput("c", false)
	y := c.AddOutput("y", true)
	a := c.AddState("a", 0, 0)

	pc := c.Present(in)
	eq := c.Pred(expr.Eq(expr.V("a"), expr.V("?c")))

	azero := c.Assign(a, expr.C(0))
	ainc := c.Assign(a, expr.Add(expr.V("a"), expr.C(1)))
	emitY := c.Emit(y)

	c.AddTransition([]Cond{On(pc, 1), On(eq, 1)}, azero, emitY)
	c.AddTransition([]Cond{On(pc, 1), On(eq, 0)}, ainc)
	return c, in, y, a
}

func TestSimpleReact(t *testing.T) {
	c, in, y, a := simpleCFSM()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckDeterministic(); err != nil {
		t.Fatal(err)
	}
	snap := c.NewSnapshot()

	// c absent: no reaction.
	r := c.React(snap)
	if r.Fired {
		t.Error("reaction without input event")
	}

	// c present with value 3, a=0: mismatch, a increments.
	snap.Present[in] = true
	snap.Values[in] = 3
	r = c.React(snap)
	if !r.Fired || len(r.Emitted) != 0 || r.NextState[a] != 1 {
		t.Errorf("mismatch reaction wrong: %+v", r)
	}

	// Drive a to 3 then match: emit y, reset a.
	snap.State[a] = 3
	r = c.React(snap)
	if !r.Fired || len(r.Emitted) != 1 || r.Emitted[0].Signal != y || r.NextState[a] != 0 {
		t.Errorf("match reaction wrong: %+v", r)
	}
}

func TestInternDedup(t *testing.T) {
	c, in, _, a := simpleCFSM()
	if c.Present(in) != c.Present(in) {
		t.Error("Present not interned")
	}
	if c.Pred(expr.Eq(expr.V("a"), expr.V("?c"))) != c.Pred(expr.Eq(expr.V("a"), expr.V("?c"))) {
		t.Error("Pred not interned")
	}
	if c.Assign(a, expr.C(0)) != c.Assign(a, expr.C(0)) {
		t.Error("Assign not interned")
	}
	if len(c.Tests) != 2 || len(c.Actions) != 3 {
		t.Errorf("test/action counts: %d %d", len(c.Tests), len(c.Actions))
	}
}

// TestKeysSame: tests and actions allocated apart are the same when
// their structure is, and every field of the key tells them apart.
func TestKeysSame(t *testing.T) {
	c, in, y, a := simpleCFSM()
	sel := c.AddState("m", 3, 0)
	pred := func(e expr.Expr) *Test { return &Test{Kind: TestPredicate, Pred: e} }
	if !pred(expr.Eq(expr.V("a"), expr.V("?c"))).Same(c.Tests[1]) {
		t.Error("equal predicates allocated apart differ")
	}
	for _, p := range [][2]*Test{
		{c.Tests[0], pred(expr.V("c"))},
		{pred(expr.V("a")), pred(expr.V("?a"))},
		{c.Sel(sel), &Test{Kind: TestSelector, Sel: &StateVar{Name: "m", Domain: 4}}},
		{c.Present(in), &Test{Kind: TestPresence, Signal: y}},
	} {
		if p[0].Same(p[1]) {
			t.Errorf("%s and %s are the same", p[0].Name(), p[1].Name())
		}
	}
	if !c.Assign(a, expr.C(0)).Same(&Action{Kind: ActAssign, Var: a, Expr: expr.C(0)}) {
		t.Error("equal assignments allocated apart differ")
	}
	for _, p := range [][2]*Action{
		{c.Emit(y), c.EmitV(y, expr.C(0))},
		{c.Assign(a, expr.C(0)), c.Assign(a, expr.C(1))},
		{c.EmitV(y, expr.V("a")), &Action{Kind: ActAssign, Var: &StateVar{Name: "y"}, Expr: expr.V("a")}},
	} {
		if p[0].Same(p[1]) {
			t.Errorf("%s and %s are the same", p[0].Name(), p[1].Name())
		}
	}
}

func TestValidateRejectsDoubleAssign(t *testing.T) {
	c := New("bad")
	a := c.AddState("a", 0, 0)
	in := c.AddInput("x", true)
	p := c.Present(in)
	c.AddTransition([]Cond{On(p, 1)},
		c.Assign(a, expr.C(0)),
		c.Assign(a, expr.C(1)))
	if err := c.Validate(); err == nil {
		t.Error("double assignment must be rejected")
	}
}

// TestValidateRejectsDuplicateNames: a machine that declares two state
// variables or two inputs with one name is rejected, since expressions
// reference them by name and could read either. The check allocates
// nothing, as BuildReactive runs it for every module.
func TestValidateRejectsDuplicateNames(t *testing.T) {
	c := New("twox")
	x1 := c.AddState("x", 0, 1)
	c.AddState("x", 0, 2)
	out := c.AddOutput("out", false)
	c.AddTransition(nil, c.EmitV(out, expr.V("x")), c.Assign(x1, expr.C(3)))
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "two state variables named x") {
		t.Errorf("two state variables named x: Validate() = %v", err)
	}

	c = New("twoin")
	c.AddInput("i", false)
	c.AddInput("i", true)
	if err := c.Validate(); err == nil || !strings.Contains(err.Error(), "two inputs named i") {
		t.Errorf("two inputs named i: Validate() = %v", err)
	}

	// An input and a state variable may share a name: "?x" and "x"
	// are apart.
	c = New("apart")
	x := c.AddState("x", 0, 0)
	in := c.AddInput("x", false)
	c.AddState("y", 0, 0)
	c.AddInput("z", true)
	c.AddTransition([]Cond{On(c.Present(in), 1)}, c.Assign(x, expr.V("?x")))
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { _ = c.Validate() }); n != 0 {
		t.Errorf("Validate allocates %v times on a valid machine", n)
	}
}

func TestValidateRejectsOutOfRange(t *testing.T) {
	c := New("bad")
	s := c.AddState("s", 3, 0)
	sel := c.Sel(s)
	c.AddTransition([]Cond{On(sel, 5)})
	if err := c.Validate(); err == nil {
		t.Error("selector value out of range must be rejected")
	}
}

func TestSelectorReact(t *testing.T) {
	c := New("fsm")
	in := c.AddInput("go", true)
	out := c.AddOutput("done", true)
	st := c.AddState("st", 3, 0)
	p := c.Present(in)
	sel := c.Sel(st)
	for k := 0; k < 3; k++ {
		next := (k + 1) % 3
		acts := []*Action{c.Assign(st, expr.C(int64(next)))}
		if next == 0 {
			acts = append(acts, c.Emit(out))
		}
		c.AddTransition([]Cond{On(p, 1), On(sel, k)}, acts...)
	}
	if err := c.CheckDeterministic(); err != nil {
		t.Fatal(err)
	}
	snap := c.NewSnapshot()
	snap.Present[in] = true
	emitted := 0
	for i := 0; i < 6; i++ {
		r := c.React(snap)
		if !r.Fired {
			t.Fatal("must fire")
		}
		emitted += len(r.Emitted)
		snap.State = r.NextState
	}
	if emitted != 2 {
		t.Errorf("3-counter over 6 steps should emit twice, got %d", emitted)
	}
}

func TestDeterminismWithExclusive(t *testing.T) {
	c := New("ex")
	in := c.AddInput("v", false)
	o := c.AddOutput("o", true)
	p := c.Present(in)
	lo := c.Pred(expr.Lt(expr.V("?v"), expr.C(10)))
	hi := c.Pred(expr.Ge(expr.V("?v"), expr.C(20)))
	c.AddTransition([]Cond{On(p, 1), On(lo, 1)}, c.Emit(o))
	c.AddTransition([]Cond{On(p, 1), On(hi, 1)})
	if err := c.CheckDeterministic(); err == nil {
		t.Error("without exclusivity info, overlap must be reported")
	}
	c.MarkExclusive(lo, hi)
	if err := c.CheckDeterministic(); err != nil {
		t.Errorf("exclusive marking should resolve the overlap: %v", err)
	}
}

func TestReactiveSimple(t *testing.T) {
	c, _, _, _ := simpleCFSM()
	r, err := BuildReactive(c)
	if err != nil {
		t.Fatal(err)
	}
	// Tests: present_c (id 0), eq (id 1). Actions: a:=0, emit... check
	// the action set over all 4 test combinations.
	type want struct{ azero, ainc, emit bool }
	wants := map[[2]int]want{
		{0, 0}: {false, false, false},
		{0, 1}: {false, false, false},
		{1, 0}: {false, true, false},
		{1, 1}: {true, false, true},
	}
	// Identify action ids.
	var idZero, idInc, idEmit int
	for i, a := range c.Actions {
		switch a.Name() {
		case "a:=0":
			idZero = i
		case "a:=(a + 1)":
			idInc = i
		case "emit_y":
			idEmit = i
		}
	}
	for tv, w := range wants {
		got, err := r.ActionSetFor([]int{tv[0], tv[1]})
		if err != nil {
			t.Fatal(err)
		}
		if got[idZero] != w.azero || got[idInc] != w.ainc || got[idEmit] != w.emit {
			t.Errorf("tests %v: actions %v, want %+v", tv, got, w)
		}
	}
}

func TestReactiveChiCharacteristic(t *testing.T) {
	c, _, _, _ := simpleCFSM()
	r, err := BuildReactive(c)
	if err != nil {
		t.Fatal(err)
	}
	// chi(x, z) is true exactly when z equals the action set for x.
	for t0 := 0; t0 < 2; t0++ {
		for t1 := 0; t1 < 2; t1++ {
			wantZ, err := r.ActionSetFor([]int{t0, t1})
			if err != nil {
				t.Fatal(err)
			}
			for mask := 0; mask < 8; mask++ {
				z := []bool{mask&1 != 0, mask&2 != 0, mask&4 != 0}
				got := r.EvalChi([]int{t0, t1}, z)
				want := z[0] == wantZ[0] && z[1] == wantZ[1] && z[2] == wantZ[2]
				if got != want {
					t.Errorf("chi(%d,%d,%v) = %v, want %v", t0, t1, z, got, want)
				}
			}
		}
	}
}

// Property: for random snapshots, React agrees with the reactive
// function composed with action execution.
func TestReactiveMatchesReact(t *testing.T) {
	c, in, y, a := simpleCFSM()
	r, err := BuildReactive(c)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 500; i++ {
		snap := c.NewSnapshot()
		snap.Present[in] = rng.Intn(2) == 1
		snap.Values[in] = int64(rng.Intn(5))
		snap.State[a] = int64(rng.Intn(5))

		direct := c.React(snap)

		flags, err := r.ActionSetFor(r.SnapshotTestVals(snap))
		if err != nil {
			t.Fatal(err)
		}
		// Apply selected actions.
		env := snap.Env()
		nextA := snap.State[a]
		emitY := false
		for j, on := range flags {
			if !on {
				continue
			}
			act := c.Actions[j]
			switch {
			case act.Kind == ActAssign && act.Var == a:
				nextA = act.Expr.Eval(env)
			case act.Kind == ActEmit && act.Signal == y:
				emitY = true
			}
		}
		directEmit := len(direct.Emitted) > 0
		if directEmit != emitY || direct.NextState[a] != nextA {
			t.Fatalf("iter %d: direct (emit=%v a'=%d) vs reactive (emit=%v a'=%d)",
				i, directEmit, direct.NextState[a], emitY, nextA)
		}
	}
}

func TestSiftingKeepsChiMeaning(t *testing.T) {
	c, _, _, _ := simpleCFSM()
	r, err := BuildReactive(c)
	if err != nil {
		t.Fatal(err)
	}
	before := make(map[[2]int][]bool)
	for t0 := 0; t0 < 2; t0++ {
		for t1 := 0; t1 < 2; t1++ {
			z, _ := r.ActionSetFor([]int{t0, t1})
			before[[2]int{t0, t1}] = z
		}
	}
	r.SiftOutputsAfterSupport()
	for k, want := range before {
		got, err := r.ActionSetFor([]int{k[0], k[1]})
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if got[j] != want[j] {
				t.Errorf("after sift, tests %v action %d changed", k, j)
			}
		}
	}
}

func TestSupports(t *testing.T) {
	c, _, _, _ := simpleCFSM()
	r, err := BuildReactive(c)
	if err != nil {
		t.Fatal(err)
	}
	sup := r.Supports()
	// Every action depends on both tests in this example.
	for j, av := range r.ActVars {
		if len(sup[av]) != 2 {
			t.Errorf("action %s support: %d vars, want 2", c.Actions[j].Name(), len(sup[av]))
		}
	}
}

// TestActionlessTransitionDoesNotFire pins the Fired semantics shared
// with the synthesized forms: the reactive function, s-graph and
// object code encode a reaction purely as action flags, so a matched
// transition with no actions must not count as fired in the reference
// either — otherwise behavioral and VM co-simulation diverge on event
// consumption (found by the netfuzz harness).
func TestActionlessTransitionDoesNotFire(t *testing.T) {
	c := New("idle")
	in := c.AddInput("x", true)
	y := c.AddOutput("y", true)
	s := c.AddState("s", 2, 0)

	px := c.Present(in)
	sel := c.Sel(s)
	// In state 0 the event is silently ignored: matched, no actions.
	c.AddTransition([]Cond{On(px, 1), On(sel, 0)})
	c.AddTransition([]Cond{On(px, 1), On(sel, 1)}, c.Emit(y))
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}

	snap := c.NewSnapshot()
	snap.Present[in] = true
	r := c.React(snap)
	if r.Fired {
		t.Errorf("action-less transition reported fired; the compiled forms cannot express that")
	}
	snap.State[s] = 1
	r = c.React(snap)
	if !r.Fired || len(r.Emitted) != 1 {
		t.Errorf("acting transition must fire: %+v", r)
	}
}
