package estimate

import (
	"strings"
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

func buildSG(t *testing.T, c *cfsm.CFSM) *sgraph.SGraph {
	t.Helper()
	r, err := cfsm.BuildReactive(c)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sgraph.Build(r, sgraph.OrderSiftAfterSupport)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// mustCalibrate calibrates a known-good built-in profile; failure is a
// test bug, not a scenario under test.
func mustCalibrate(t *testing.T, prof *vm.Profile) *Params {
	t.Helper()
	p, err := Calibrate(prof)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestCalibrateSane(t *testing.T) {
	for _, prof := range []*vm.Profile{vm.HC11(), vm.R3K()} {
		p := mustCalibrate(t, prof)
		checks := map[string]int64{
			"TestPresenceCyc0": p.TestPresenceCyc[0],
			"TestPresenceCyc1": p.TestPresenceCyc[1],
			"AssignEmitCyc":    p.AssignEmitCyc,
			"AssignStoreCyc":   p.AssignStoreCyc,
			"GotoCyc":          p.GotoCyc,
			"LocalCopyCyc":     p.LocalCopyCyc,
			"ValueFetchCyc":    p.ValueFetchCyc,
			"ExprConstCyc":     p.ExprConstCyc,
			"ExprRefCyc":       p.ExprRefCyc,
			"TestPresenceSz":   p.TestPresenceSz,
			"AssignEmitSz":     p.AssignEmitSz,
			"GotoSz":           p.GotoSz,
		}
		for name, v := range checks {
			if v <= 0 {
				t.Errorf("%s: parameter %s = %d, want > 0", prof.Name, name, v)
			}
		}
		// The taken branch must not be cheaper than not-taken.
		if p.TestPresenceCyc[1] < p.TestPresenceCyc[0] {
			t.Errorf("%s: taken branch cheaper than fall-through", prof.Name)
		}
		// Division must be the most expensive library entry.
		if p.ExprOpCyc[expr.OpDiv] <= p.ExprOpCyc[expr.OpAdd] {
			t.Errorf("%s: DIV (%d) must cost more than ADD (%d)",
				prof.Name, p.ExprOpCyc[expr.OpDiv], p.ExprOpCyc[expr.OpAdd])
		}
	}
}

// checkAccuracy compares the s-graph estimate against exact
// object-code measurement; the paper's Table I shows close agreement.
func checkAccuracy(t *testing.T, c *cfsm.CFSM, prof *vm.Profile, tolPct float64) {
	t.Helper()
	g := buildSG(t, c)
	params := mustCalibrate(t, prof)
	opts := Options{}
	est := EstimateSGraph(g, params, opts)

	prog, err := codegen.Assemble(g, codegen.NewSignalMap(c), opts.Codegen)
	if err != nil {
		t.Fatal(err)
	}
	measuredSize := int64(prof.CodeSize(prog))
	pc, err := vm.AnalyzeCycles(prof, prog, codegen.EntryLabel(c))
	if err != nil {
		t.Fatal(err)
	}

	within := func(name string, est, meas int64) {
		if meas == 0 {
			t.Fatalf("%s: measured 0", name)
		}
		err := 100 * float64(est-meas) / float64(meas)
		if err < -tolPct || err > tolPct {
			t.Errorf("%s/%s: estimate %d vs measured %d (%.1f%%, tolerance %.0f%%)",
				prof.Name, name, est, meas, err, tolPct)
		}
	}
	within("size", est.CodeBytes, measuredSize)
	within("maxCycles", est.MaxCycles, pc.Max)
	within("minCycles", est.MinCycles, pc.Min)
	if est.DataBytes < int64(prog.Words*prof.IntBytes) {
		t.Errorf("%s: data estimate %d below actual %d",
			prof.Name, est.DataBytes, prog.Words*prof.IntBytes)
	}
}

func TestAccuracySimpleHC11(t *testing.T)  { checkAccuracy(t, simple(), vm.HC11(), 15) }
func TestAccuracySimpleR3K(t *testing.T)   { checkAccuracy(t, simple(), vm.R3K(), 15) }
func TestAccuracyCounterHC11(t *testing.T) { checkAccuracy(t, counter(), vm.HC11(), 15) }
func TestAccuracyCounterR3K(t *testing.T)  { checkAccuracy(t, counter(), vm.R3K(), 15) }

func TestMinLeMax(t *testing.T) {
	g := buildSG(t, counter())
	p := mustCalibrate(t, vm.HC11())
	est := EstimateSGraph(g, p, Options{})
	if est.MinCycles > est.MaxCycles {
		t.Errorf("min %d > max %d", est.MinCycles, est.MaxCycles)
	}
	if est.MinCycles <= 0 || est.CodeBytes <= 0 {
		t.Errorf("degenerate estimate: %+v", est)
	}
}

func TestFalsePathsTightenMax(t *testing.T) {
	// Two mutually exclusive predicates each guarding an expensive
	// action: the plain longest path takes both, the false-path-aware
	// bound must be lower.
	c := cfsm.New("fp")
	v := c.AddInput("v", false)
	o1 := c.AddOutput("o1", true)
	o2 := c.AddOutput("o2", true)
	x := c.AddState("x", 0, 0)
	p := c.Present(v)
	lo := c.Pred(expr.Lt(expr.V("?v"), expr.C(10)))
	hi := c.Pred(expr.Ge(expr.V("?v"), expr.C(20)))
	c.MarkExclusive(lo, hi)
	heavy1 := c.Assign(x, expr.Mul(expr.V("x"), expr.V("?v")))
	c.AddTransition([]cfsm.Cond{cfsm.On(p, 1), cfsm.On(lo, 1), cfsm.On(hi, 0)}, c.Emit(o1), heavy1)
	c.AddTransition([]cfsm.Cond{cfsm.On(p, 1), cfsm.On(lo, 1), cfsm.On(hi, 1)}, c.Emit(o1), c.Emit(o2), heavy1)
	c.AddTransition([]cfsm.Cond{cfsm.On(p, 1), cfsm.On(lo, 0), cfsm.On(hi, 1)}, c.Emit(o2))

	r, err := cfsm.BuildReactive(c)
	if err != nil {
		t.Fatal(err)
	}
	g, err := sgraph.Build(r, sgraph.OrderNaive)
	if err != nil {
		t.Fatal(err)
	}
	params := mustCalibrate(t, vm.HC11())
	plain := EstimateSGraph(g, params, Options{})
	pruned := EstimateSGraph(g, params, Options{UseFalsePaths: true})
	if pruned.MaxCycles >= plain.MaxCycles {
		t.Errorf("false-path pruning did not tighten the bound: %d vs %d",
			pruned.MaxCycles, plain.MaxCycles)
	}
	if pruned.MinCycles != plain.MinCycles {
		t.Errorf("pruning must not change the min bound")
	}
}

func TestOptimizeCopiesLowersEstimate(t *testing.T) {
	// The swapper needs copies; the simple module does not, so
	// OptimizeCopies lowers its estimate.
	g := buildSG(t, simple())
	p := mustCalibrate(t, vm.HC11())
	full := EstimateSGraph(g, p, Options{})
	opt := EstimateSGraph(g, p, Options{Codegen: codegen.Options{OptimizeCopies: true}})
	if opt.CodeBytes >= full.CodeBytes {
		t.Errorf("copy optimisation must lower the size estimate: %d vs %d",
			opt.CodeBytes, full.CodeBytes)
	}
	if opt.DataBytes >= full.DataBytes {
		t.Errorf("copy optimisation must lower the RAM estimate: %d vs %d",
			opt.DataBytes, full.DataBytes)
	}
}

func TestExprDepth(t *testing.T) {
	if d := depthOf(expr.C(1)); d != 0 {
		t.Errorf("const depth %d", d)
	}
	e := expr.Add(expr.V("a"), expr.Mul(expr.V("b"), expr.C(2)))
	if d := depthOf(e); d != 2 {
		t.Errorf("nested depth %d, want 2", d)
	}
	left := expr.Add(expr.Mul(expr.V("b"), expr.C(2)), expr.V("a"))
	if d := depthOf(left); d != 1 {
		t.Errorf("left-deep depth %d, want 1", d)
	}
}

func TestParamsFormat(t *testing.T) {
	p := mustCalibrate(t, vm.HC11())
	out := p.Format()
	for _, needle := range []string{
		"timing (cycles):", "size (bytes):", "system:", "library (cycles):",
		"emit event", "DIV=", "clock 2000 kHz",
	} {
		if !strings.Contains(out, needle) {
			t.Errorf("parameter report missing %q", needle)
		}
	}
	// The paper's counts: 17 timing, 15 size, 4 system parameters.
	if n := strings.Count(out, "\n  "); n != 17+15 {
		t.Errorf("parameter rows: %d, want 32", n)
	}
}

func TestReduceLowersEstimate(t *testing.T) {
	// The fixed-point s-graph reduction uses the same MarkExclusive
	// facts as false-path pruning, but rewrites the graph itself: with
	// cnt==49 and cnt==149 declared exclusive, the inner threshold
	// TEST is bypassed, so the structural estimate must drop (ROM) and
	// must not worsen (cycles) — no false-path option needed.
	c := cfsm.New("redest")
	tick := c.AddInput("tick", true)
	end5 := c.AddOutput("end5", true)
	end10 := c.AddOutput("end10", true)
	cnt := c.AddState("cnt", 0, 0)
	p := c.Present(tick)
	at50 := c.Pred(expr.Eq(expr.V("cnt"), expr.C(49)))
	at150 := c.Pred(expr.Eq(expr.V("cnt"), expr.C(149)))
	c.MarkExclusive(at50, at150)
	bump := expr.Add(expr.V("cnt"), expr.C(1))
	c.AddTransition([]cfsm.Cond{cfsm.On(p, 1), cfsm.On(at50, 1)},
		c.Emit(end5), c.Assign(cnt, bump))
	c.AddTransition([]cfsm.Cond{cfsm.On(p, 1), cfsm.On(at150, 1)},
		c.Emit(end10), c.Assign(cnt, expr.C(0)))
	c.AddTransition([]cfsm.Cond{cfsm.On(p, 1), cfsm.On(at50, 0), cfsm.On(at150, 0)},
		c.Assign(cnt, bump))

	g := buildSG(t, c)
	params := mustCalibrate(t, vm.HC11())
	plain := EstimateSGraph(g, params, Options{})

	g2 := buildSG(t, c)
	stats := g2.Reduce(sgraph.ReduceOptions{})
	if stats.TestsEliminated == 0 {
		t.Fatalf("reduction eliminated no TEST: %s", stats.String())
	}
	reduced := EstimateSGraph(g2, params, Options{})
	if reduced.CodeBytes >= plain.CodeBytes {
		t.Errorf("reduction must lower the ROM estimate: %d vs %d",
			reduced.CodeBytes, plain.CodeBytes)
	}
	if reduced.MaxCycles > plain.MaxCycles {
		t.Errorf("reduction must not worsen the cycle bound: %d vs %d",
			reduced.MaxCycles, plain.MaxCycles)
	}
}

// TestExpectedCyclesDropsUncovered: a vector that stops at a test the
// profile does not cover, and a malformed key, leave the expected
// figure alone; a profile with no covered vector gives zero.
func TestExpectedCyclesDropsUncovered(t *testing.T) {
	g := buildSG(t, simple())
	p := mustCalibrate(t, vm.HC11())
	pres, pred := g.C.Tests[0].Name(), g.C.Tests[1].Name()
	expected := func(names []string, counts map[string]int64) int64 {
		return EstimateSGraph(g, p, Options{ScenarioProfile: &sgraph.SpecializeProfile{TestNames: names, Outcomes: counts}}).ExpectedCycles
	}
	// Only present_c is profiled: absent (0) runs to END, present (1)
	// stops at the uncovered predicate.
	absent := expected([]string{pres}, map[string]int64{"0": 5})
	if absent <= 0 {
		t.Fatalf("absent-path expectation %d, want > 0", absent)
	}
	for _, tc := range []struct {
		name   string
		names  []string
		counts map[string]int64
		want   int64
	}{
		{"uncovered vector dropped", []string{pres}, map[string]int64{"0": 5, "1": 1000}, absent},
		{"malformed key skipped", []string{pres, pred}, map[string]int64{"0,1": 5, "banana": 9, "2,0": 4}, absent},
		{"nothing covered", []string{pres}, map[string]int64{"1": 7}, 0},
	} {
		if got := expected(tc.names, tc.counts); got != tc.want {
			t.Errorf("%s: expected cycles %d, want %d", tc.name, got, tc.want)
		}
	}
}
