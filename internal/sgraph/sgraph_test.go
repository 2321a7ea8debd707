package sgraph

import (
	"math/rand"
	"strings"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/expr"
	"polis/internal/randcfsm"
)

// simple builds the paper's Fig. 1 module.
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

// counter builds a 5-state selector machine with a valued output.
func counter() *cfsm.CFSM {
	c := cfsm.New("counter")
	tick := c.AddInput("tick", true)
	rst := c.AddInput("rst", true)
	out := c.AddOutput("wrap", false)
	st := c.AddState("st", 5, 0)
	p := c.Present(tick)
	pr := c.Present(rst)
	sel := c.Sel(st)
	// Reset dominates.
	for k := 0; k < 5; k++ {
		c.AddTransition(
			[]cfsm.Cond{cfsm.On(pr, 1), cfsm.On(sel, k)},
			c.Assign(st, expr.C(0)))
	}
	for k := 0; k < 5; k++ {
		next := (k + 1) % 5
		acts := []*cfsm.Action{c.Assign(st, expr.C(int64(next)))}
		if next == 0 {
			acts = append(acts, c.EmitV(out, expr.C(int64(k))))
		}
		c.AddTransition(
			[]cfsm.Cond{cfsm.On(pr, 0), cfsm.On(p, 1), cfsm.On(sel, k)},
			acts...)
	}
	return c
}

func buildGraph(t *testing.T, c *cfsm.CFSM, ord Ordering) *SGraph {
	t.Helper()
	r, err := cfsm.BuildReactive(c)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(r, ord)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	return g
}

// checkEquiv verifies the s-graph computes the same reaction as the
// reference interpreter over many random snapshots.
func checkEquiv(t *testing.T, c *cfsm.CFSM, g *SGraph, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < 400; i++ {
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
		want := c.React(snap)
		got := g.Evaluate(snap)
		if want.Fired != got.Fired {
			t.Fatalf("iter %d: fired %v vs %v", i, want.Fired, got.Fired)
		}
		if len(want.Emitted) != len(got.Emitted) {
			t.Fatalf("iter %d: emissions %v vs %v", i, want.Emitted, got.Emitted)
		}
		for j := range want.Emitted {
			if want.Emitted[j].Signal != got.Emitted[j].Signal ||
				want.Emitted[j].Value != got.Emitted[j].Value {
				t.Fatalf("iter %d: emission %d differs", i, j)
			}
		}
		for _, sv := range c.States {
			if want.NextState[sv] != got.NextState[sv] {
				t.Fatalf("iter %d: state %s: %d vs %d",
					i, sv.Name, want.NextState[sv], got.NextState[sv])
			}
		}
	}
}

func TestBuildSimpleAllOrderings(t *testing.T) {
	for _, ord := range []Ordering{OrderNaive, OrderSiftInputsFirst, OrderSiftAfterSupport} {
		t.Run(ord.String(), func(t *testing.T) {
			c := simple()
			g := buildGraph(t, c, ord)
			checkEquiv(t, c, g, 7)
		})
	}
}

func TestBuildCounterAllOrderings(t *testing.T) {
	for _, ord := range []Ordering{OrderNaive, OrderSiftInputsFirst, OrderSiftAfterSupport} {
		t.Run(ord.String(), func(t *testing.T) {
			c := counter()
			g := buildGraph(t, c, ord)
			checkEquiv(t, c, g, 11)
		})
	}
}

func TestSimpleStructureMatchesFig1(t *testing.T) {
	// Fig. 1: BEGIN, TEST(present_c), TEST(a==?c), ASSIGNs for
	// a:=0 / emit y / a:=a+1, shared END.
	c := simple()
	g := buildGraph(t, c, OrderNaive)
	st := g.ComputeStats()
	if st.Tests != 2 {
		t.Errorf("expected 2 TEST vertices, got %d", st.Tests)
	}
	if st.Assigns != 3 {
		t.Errorf("expected 3 ASSIGN vertices, got %d", st.Assigns)
	}
	// The absent-c branch must reach END without assigning.
	snap := c.NewSnapshot()
	r := g.Evaluate(snap)
	if r.Fired {
		t.Error("no input event must mean no ASSIGN visited")
	}
}

func TestSelectorProducesMultiwayTest(t *testing.T) {
	c := counter()
	g := buildGraph(t, c, OrderSiftAfterSupport)
	found := false
	for _, v := range g.Reachable() {
		if v.Kind == Test && len(v.Tests) == 1 && v.Tests[0].Kind == cfsm.TestSelector {
			if v.Arity() != 5 {
				t.Errorf("selector TEST arity %d, want 5", v.Arity())
			}
			found = true
		}
	}
	if !found {
		t.Error("no multi-way selector TEST vertex in counter s-graph")
	}
}

func TestEachTestOncePerPath(t *testing.T) {
	// With outputs after support, each input variable is tested at
	// most once per path (paper Section III-B3b).
	c := counter()
	g := buildGraph(t, c, OrderSiftAfterSupport)
	var walk func(v *Vertex, seen map[*cfsm.Test]bool)
	walk = func(v *Vertex, seen map[*cfsm.Test]bool) {
		switch v.Kind {
		case Test:
			for _, tst := range v.Tests {
				if seen[tst] {
					t.Fatalf("test %s appears twice on one path", tst.Name())
				}
			}
			for _, child := range v.Children {
				s2 := make(map[*cfsm.Test]bool, len(seen)+1)
				for k := range seen {
					s2[k] = true
				}
				for _, tst := range v.Tests {
					s2[tst] = true
				}
				walk(child, s2)
			}
		case Begin, Assign:
			walk(v.Next, seen)
		}
	}
	walk(g.Begin, map[*cfsm.Test]bool{})
}

func TestStats(t *testing.T) {
	c := simple()
	g := buildGraph(t, c, OrderNaive)
	st := g.ComputeStats()
	if st.Vertices == 0 || st.Edges == 0 || st.Depth < 3 {
		t.Errorf("implausible stats: %+v", st)
	}
	if st.Paths < 3 {
		t.Errorf("simple has at least 3 paths, got %d", st.Paths)
	}
}

func TestCollapsePreservesSemantics(t *testing.T) {
	c := counter()
	g := buildGraph(t, c, OrderSiftAfterSupport)
	before := g.ComputeStats()
	n := g.CollapseTests(32)
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, c, g, 23)
	after := g.ComputeStats()
	if n > 0 && after.Tests >= before.Tests {
		t.Errorf("collapsing %d nodes did not reduce TEST count: %d -> %d",
			n, before.Tests, after.Tests)
	}
}

func TestCollapseOnSimple(t *testing.T) {
	c := simple()
	g := buildGraph(t, c, OrderNaive)
	g.CollapseTests(0)
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	checkEquiv(t, c, g, 29)
}

func TestSharingReducesVertices(t *testing.T) {
	// Two transitions assigning the same action from different
	// guards must share the ASSIGN tail.
	c := cfsm.New("share")
	a := c.AddInput("a", true)
	b := c.AddInput("b", true)
	o := c.AddOutput("o", true)
	pa, pb := c.Present(a), c.Present(b)
	em := c.Emit(o)
	c.AddTransition([]cfsm.Cond{cfsm.On(pa, 1)}, em)
	c.AddTransition([]cfsm.Cond{cfsm.On(pa, 0), cfsm.On(pb, 1)}, em)
	r, err := cfsm.BuildReactive(c)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(r, OrderSiftAfterSupport)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, v := range g.Reachable() {
		if v.Kind == Assign {
			count++
		}
	}
	if count != 1 {
		t.Errorf("expected shared single ASSIGN vertex, got %d", count)
	}
}

func TestDotOutput(t *testing.T) {
	c := simple()
	g := buildGraph(t, c, OrderNaive)
	dot := g.Dot()
	if len(dot) == 0 || dot[0] != 'd' {
		t.Error("dot output malformed")
	}
	for _, needle := range []string{"BEGIN", "END", "present_c"} {
		if !contains(dot, needle) {
			t.Errorf("dot output missing %q", needle)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestOrderingAffectsSizeNotFunction(t *testing.T) {
	// Build a CFSM with enough structure that orderings differ.
	c := cfsm.New("wide")
	var tests []*cfsm.Test
	var outs []*cfsm.Signal
	for i := 0; i < 4; i++ {
		in := c.AddInput(string(rune('a'+i)), true)
		tests = append(tests, c.Present(in))
		outs = append(outs, c.AddOutput(string(rune('x'+i)), true))
	}
	// Output i depends on inputs i and (i+1)%4.
	for i := 0; i < 4; i++ {
		j := (i + 1) % 4
		c.AddTransition(
			[]cfsm.Cond{cfsm.On(tests[i], 1), cfsm.On(tests[j], 1)},
			c.Emit(outs[i]))
	}
	if err := c.CheckDeterministic(); err == nil {
		// Overlapping guards with different actions — this CFSM is
		// nondeterministic as written, which BuildReactive handles by
		// unioning action conditions; determinism of the *function*
		// still holds because chi is built from f_j directly.
		_ = err
	}
	sizes := map[Ordering]int{}
	for _, ord := range []Ordering{OrderNaive, OrderSiftAfterSupport} {
		cc := counter()
		g := buildGraph(t, cc, ord)
		sizes[ord] = g.ComputeStats().Vertices
		checkEquiv(t, cc, g, 31)
	}
	if sizes[OrderSiftAfterSupport] > sizes[OrderNaive] {
		t.Errorf("sifted build larger than naive: %v", sizes)
	}
}

// TestCheckFunctional verifies Theorem 1's conclusion exhaustively on
// the example machines: the built s-graph computes exactly the
// reactive function, with each test at most once per path.
func TestCheckFunctional(t *testing.T) {
	for _, mk := range []func() *cfsm.CFSM{simple, counter} {
		c := mk()
		for _, ord := range []Ordering{OrderNaive, OrderSiftAfterSupport} {
			r, err := cfsm.BuildReactive(c)
			if err != nil {
				t.Fatal(err)
			}
			g, err := Build(r, ord)
			if err != nil {
				t.Fatal(err)
			}
			if err := g.CheckFunctional(r); err != nil {
				t.Errorf("%s/%s: %v", c.Name, ord, err)
			}
		}
	}
}

// TestCheckFunctionalCollapsed: collapsing preserves functionality but
// the each-test-once property also survives (merged tests are still
// visited once).
func TestCheckFunctionalCollapsed(t *testing.T) {
	c := counter()
	r, err := cfsm.BuildReactive(c)
	if err != nil {
		t.Fatal(err)
	}
	g, err := Build(r, OrderSiftAfterSupport)
	if err != nil {
		t.Fatal(err)
	}
	g.CollapseTests(32)
	if err := g.CheckFunctional(r); err != nil {
		t.Error(err)
	}
}

func TestParentsCounts(t *testing.T) {
	c := simple()
	g := buildGraph(t, c, OrderNaive)
	parents := g.Parents()
	// BEGIN has no parents; END is shared by several paths.
	if parents[g.Begin.ID] != 0 {
		t.Errorf("BEGIN in-degree %d", parents[g.Begin.ID])
	}
	if parents[g.End.ID] < 2 {
		t.Errorf("END in-degree %d, want >= 2", parents[g.End.ID])
	}
	// Sum of in-degrees equals the edge count.
	total := 0
	for _, n := range parents {
		total += int(n)
	}
	if st := g.ComputeStats(); total != st.Edges {
		t.Errorf("in-degree sum %d != edges %d", total, st.Edges)
	}
}

// TestVertexIDsDense checks the invariant per-vertex slices rely on:
// every vertex has a unique ID below IDBound, FromChi numbers them
// densely, and Reduce, CollapseTests and Clone keep IDs and the bound.
func TestVertexIDsDense(t *testing.T) {
	check := func(name string, g *SGraph) {
		t.Helper()
		seen := make([]bool, g.IDBound())
		for _, v := range g.Vertices {
			if v.ID < 0 || v.ID >= g.IDBound() || seen[v.ID] {
				t.Fatalf("%s: vertex id %d repeated or outside [0, %d)", name, v.ID, g.IDBound())
			}
			seen[v.ID] = true
		}
	}
	rng := rand.New(rand.NewSource(5))
	machines := []*cfsm.CFSM{timerLike()} // reduce drops vertices here
	for i := 0; i < 40; i++ {
		machines = append(machines, randcfsm.New(rng, randcfsm.DefaultConfig()).C)
	}
	dropped := 0
	for i, m := range machines {
		g := buildGraph(t, m, OrderSiftAfterSupport)
		if g.IDBound() != len(g.Vertices) {
			t.Fatalf("machine %d: FromChi issued %d ids for %d vertices", i, g.IDBound(), len(g.Vertices))
		}
		check("built", g)
		bound := g.IDBound()
		c := g.Clone()
		g.Reduce(ReduceOptions{})
		c.CollapseTests(0)
		for name, h := range map[string]*SGraph{
			"reduced": g, "collapsed": c, "reduced clone": g.Clone(), "collapsed clone": c.Clone(),
		} {
			if h.IDBound() != bound {
				t.Fatalf("machine %d %s: id bound %d, want %d", i, name, h.IDBound(), bound)
			}
			check(name, h)
			if len(h.Vertices) < bound {
				dropped++
			}
		}
	}
	if dropped == 0 {
		t.Fatal("no pass dropped a vertex; the bound was never tested apart from the vertex count")
	}
}

// TestCheckWellFormedForeignVertex: a vertex wired in by hand with an
// ID the graph never issued is reported, not indexed out of range.
func TestCheckWellFormedForeignVertex(t *testing.T) {
	g := buildGraph(t, simple(), OrderSiftAfterSupport)
	foreign := *g.Begin.Next
	foreign.ID = g.IDBound() + 3
	g.Begin.Next = &foreign
	if err := g.CheckWellFormed(); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Fatalf("CheckWellFormed = %v, want an out-of-range id error", err)
	}
}
