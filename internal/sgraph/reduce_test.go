package sgraph

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/expr"
	"polis/internal/randcfsm"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// cloneGraph deep-copies the reachable part of a graph so the original
// can serve as the unreduced reference in differential checks.
func cloneGraph(g *SGraph) *SGraph {
	h := &SGraph{C: g.C}
	mp := make(map[*Vertex]*Vertex)
	reach := g.Reachable()
	for _, v := range reach {
		nv := h.newVertex(v.Kind)
		nv.Tests = append([]*cfsm.Test(nil), v.Tests...)
		nv.Action = v.Action
		mp[v] = nv
	}
	for _, v := range reach {
		nv := mp[v]
		for _, c := range v.Children {
			nv.Children = append(nv.Children, mp[c])
		}
		if v.Next != nil {
			nv.Next = mp[v.Next]
		}
	}
	h.Begin = mp[g.Begin]
	h.End = mp[g.End]
	return h
}

// timerLike reproduces the dashboard timer's shape: two predicates
// over one data variable that can never hold together, declared
// exclusive, with transitions that overlap exactly on the impossible
// combination. This is the paper-style example where don't-care TEST
// elimination has something real to remove.
func timerLike() *cfsm.CFSM {
	c := cfsm.New("timerlike")
	start := c.AddInput("start", true)
	tick := c.AddInput("tick", true)
	end5 := c.AddOutput("end5", true)
	end10 := c.AddOutput("end10", true)
	counting := c.AddState("on", 2, 0)
	cnt := c.AddState("cnt", 0, 0)
	sel := c.Sel(counting)
	pStart := c.Present(start)
	pTick := c.Present(tick)
	at50 := c.Pred(expr.Eq(expr.V("cnt"), expr.C(49)))
	at150 := c.Pred(expr.Eq(expr.V("cnt"), expr.C(149)))
	c.MarkExclusive(at50, at150)
	c.AddTransition([]cfsm.Cond{cfsm.On(pStart, 1)},
		c.Assign(cnt, expr.C(0)), c.Assign(counting, expr.C(1)))
	c.AddTransition(
		[]cfsm.Cond{cfsm.On(pStart, 0), cfsm.On(pTick, 1), cfsm.On(sel, 1), cfsm.On(at50, 1)},
		c.Emit(end5), c.Assign(cnt, expr.Add(expr.V("cnt"), expr.C(1))))
	c.AddTransition(
		[]cfsm.Cond{cfsm.On(pStart, 0), cfsm.On(pTick, 1), cfsm.On(sel, 1), cfsm.On(at150, 1)},
		c.Emit(end10), c.Assign(counting, expr.C(0)))
	c.AddTransition(
		[]cfsm.Cond{cfsm.On(pStart, 0), cfsm.On(pTick, 1), cfsm.On(sel, 1), cfsm.On(at50, 0), cfsm.On(at150, 0)},
		c.Assign(cnt, expr.Add(expr.V("cnt"), expr.C(1))))
	return c
}

// checkTimerEquiv compares React and Evaluate over snapshots that
// actually exercise the exclusive predicates. checkEquiv draws data
// variables from [0,6), so cnt==49 and cnt==149 never arise there;
// this sweep pins them explicitly.
func checkTimerEquiv(t *testing.T, c *cfsm.CFSM, g *SGraph) {
	t.Helper()
	var counting, cnt *cfsm.StateVar
	for _, sv := range c.States {
		if sv.Name == "on" {
			counting = sv
		} else {
			cnt = sv
		}
	}
	for _, cv := range []int64{0, 1, 48, 49, 50, 149, 150} {
		for on := int64(0); on < 2; on++ {
			for mask := 0; mask < 4; mask++ {
				snap := c.NewSnapshot()
				snap.Present[c.Inputs[0]] = mask&1 != 0
				snap.Present[c.Inputs[1]] = mask&2 != 0
				snap.State[counting] = on
				snap.State[cnt] = cv
				want := c.React(snap)
				got := g.Evaluate(snap)
				if want.Fired != got.Fired {
					t.Fatalf("cnt=%d on=%d mask=%d: fired %v vs %v", cv, on, mask, want.Fired, got.Fired)
				}
				if len(want.Emitted) != len(got.Emitted) {
					t.Fatalf("cnt=%d on=%d mask=%d: emissions %v vs %v", cv, on, mask, want.Emitted, got.Emitted)
				}
				for j := range want.Emitted {
					if want.Emitted[j] != got.Emitted[j] {
						t.Fatalf("cnt=%d on=%d mask=%d: emission %d differs", cv, on, mask, j)
					}
				}
				for _, sv := range c.States {
					if want.NextState[sv] != got.NextState[sv] {
						t.Fatalf("cnt=%d on=%d mask=%d: state %s: %d vs %d",
							cv, on, mask, sv.Name, want.NextState[sv], got.NextState[sv])
					}
				}
			}
		}
	}
}

// TestReducePristineFixedPoint: graphs straight out of procedure build
// are already maximally shared (construction memoises on canonical BDD
// nodes) and, absent exclusivity declarations, have no don't-care
// paths — Reduce must be a no-op on them, in one iteration.
func TestReducePristineFixedPoint(t *testing.T) {
	for _, mk := range []struct {
		name  string
		build func() *cfsm.CFSM
	}{{"simple", simple}, {"counter", counter}} {
		for _, ord := range []Ordering{OrderNaive, OrderSiftInputsFirst, OrderSiftAfterSupport} {
			t.Run(mk.name+"/"+ord.String(), func(t *testing.T) {
				c := mk.build()
				g := buildGraph(t, c, ord)
				st := g.Reduce(ReduceOptions{})
				if st.Changed() {
					t.Errorf("pristine graph changed: %s", st)
				}
				if st.Iterations != 1 {
					t.Errorf("expected 1 iteration on a fixed point, got %d", st.Iterations)
				}
				if err := g.CheckWellFormed(); err != nil {
					t.Fatal(err)
				}
				checkEquiv(t, c, g, 11)
			})
		}
	}
}

// TestReduceTimerExclusive is the acceptance-criterion test: on the
// paper-style timer machine the context/care analysis must bypass at
// least one TEST (the second exclusive predicate is forced once the
// first holds) and strictly shrink the graph, without changing the
// observable reaction.
func TestReduceTimerExclusive(t *testing.T) {
	for _, ord := range []Ordering{OrderNaive, OrderSiftAfterSupport} {
		t.Run(ord.String(), func(t *testing.T) {
			c := timerLike()
			r, err := cfsm.BuildReactive(c)
			if err != nil {
				t.Fatal(err)
			}
			g := buildGraph(t, c, ord)
			ref := cloneGraph(g)
			st := g.Reduce(ReduceOptions{})
			if st.TestsEliminated < 1 {
				t.Errorf("expected at least one TEST eliminated, got %s", st)
			}
			if st.VerticesAfter >= st.VerticesBefore {
				t.Errorf("expected a strictly smaller graph, got %s", st)
			}
			if err := g.CheckWellFormed(); err != nil {
				t.Fatal(err)
			}
			if err := g.CheckEquivalent(ref); err != nil {
				t.Fatal(err)
			}
			// The reduced graph must still realise the reactive
			// function exactly on the care set.
			if err := g.CheckFunctional(r); err != nil {
				t.Fatal(err)
			}
			checkEquiv(t, c, g, 13)
			checkTimerEquiv(t, c, g)
		})
	}
}

// TestReduceSharesHandBuilt: two separately allocated, isomorphic
// subgraphs must merge into one.
func TestReduceSharesHandBuilt(t *testing.T) {
	c := cfsm.New("share")
	a := c.AddInput("a", true)
	y := c.AddOutput("y", true)
	pa := c.Present(a)
	emit := c.Emit(y)

	g := &SGraph{C: c}
	g.Begin = g.newVertex(Begin)
	root := g.newVertex(Test)
	g.End = g.newVertex(End)
	mk := func() *Vertex {
		v := g.newVertex(Assign)
		v.Action = emit
		v.Next = g.End
		return v
	}
	root.Tests = []*cfsm.Test{pa}
	root.Children = []*Vertex{mk(), mk()} // isomorphic twins
	g.Begin.Next = root
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	ref := cloneGraph(g)
	st := g.Reduce(ReduceOptions{})
	if st.Shares < 1 {
		t.Errorf("expected a share, got %s", st)
	}
	// Once the twins merge the TEST decides nothing and is bypassed:
	// BEGIN -> emit -> END.
	if st.TestsEliminated < 1 {
		t.Errorf("expected uniform TEST bypass after sharing, got %s", st)
	}
	if got := len(g.Reachable()); got != 3 {
		t.Errorf("expected 3 vertices after reduction, got %d", got)
	}
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckEquivalent(ref); err != nil {
		t.Fatal(err)
	}
}

// TestReduceRepeatedTestBypassed: a TEST repeated on one path is
// decided by its context — the inner occurrence must be bypassed.
func TestReduceRepeatedTestBypassed(t *testing.T) {
	c := cfsm.New("repeat")
	a := c.AddInput("a", true)
	y := c.AddOutput("y", true)
	pa := c.Present(a)
	emit := c.Emit(y)

	g := &SGraph{C: c}
	g.Begin = g.newVertex(Begin)
	outer := g.newVertex(Test)
	inner := g.newVertex(Test)
	g.End = g.newVertex(End)
	act := g.newVertex(Assign)
	act.Action = emit
	act.Next = g.End
	// outer: pa=0 -> END; pa=1 -> inner (same test again).
	// inner: pa=0 -> END (dead edge); pa=1 -> emit.
	outer.Tests = []*cfsm.Test{pa}
	outer.Children = []*Vertex{g.End, inner}
	inner.Tests = []*cfsm.Test{pa}
	inner.Children = []*Vertex{g.End, act}
	g.Begin.Next = outer
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	ref := cloneGraph(g)
	st := g.Reduce(ReduceOptions{})
	if st.TestsEliminated < 1 {
		t.Errorf("expected the repeated TEST to be bypassed, got %s", st)
	}
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckEquivalent(ref); err != nil {
		t.Fatal(err)
	}
	// The reduced graph must test pa exactly once.
	seen := 0
	for _, v := range g.Reachable() {
		if v.Kind == Test {
			seen++
		}
	}
	if seen != 1 {
		t.Errorf("expected exactly one TEST after reduction, got %d", seen)
	}
}

// TestReduceDeadAssignDropped: an ASSIGN overwritten on every path
// before the post-reaction commit is dead under copy-on-entry
// semantics and must be straightened away.
func TestReduceDeadAssignDropped(t *testing.T) {
	c := cfsm.New("dead")
	a := c.AddInput("a", true)
	x := c.AddState("x", 0, 0)
	pa := c.Present(a)
	set1 := c.Assign(x, expr.C(1))
	set2 := c.Assign(x, expr.C(2))

	g := &SGraph{C: c}
	g.Begin = g.newVertex(Begin)
	dead := g.newVertex(Assign)
	branch := g.newVertex(Test)
	g.End = g.newVertex(End)
	mk := func() *Vertex {
		v := g.newVertex(Assign)
		v.Action = set2
		v.Next = g.End
		return v
	}
	dead.Action = set1
	dead.Next = branch
	branch.Tests = []*cfsm.Test{pa}
	branch.Children = []*Vertex{mk(), mk()}
	g.Begin.Next = dead
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	ref := cloneGraph(g)
	st := g.Reduce(ReduceOptions{})
	if st.AssignsDropped < 1 {
		t.Errorf("expected the dead ASSIGN to be dropped, got %s", st)
	}
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	if err := g.CheckEquivalent(ref); err != nil {
		t.Fatal(err)
	}
	// Straightening exposes sharing exposes a uniform TEST: the fixed
	// point is BEGIN -> x:=2 -> END.
	if got := len(g.Reachable()); got != 3 {
		t.Errorf("expected 3 vertices at the fixed point, got %d", got)
	}
}

// TestDontCareBudgetAbort: when the context manager outgrows its node
// budget, the don't-care pass gives up before any rewrite, leaving the
// graph and the statistics as they were.
func TestDontCareBudgetAbort(t *testing.T) {
	g := buildGraph(t, timerLike(), OrderSiftAfterSupport)
	before := g.Dot()
	var st ReduceStats
	if n := g.eliminateDontCares(1, &st); n != 0 {
		t.Errorf("aborted pass reported %d change(s)", n)
	}
	if st != (ReduceStats{}) {
		t.Errorf("aborted pass touched the stats: %s", st)
	}
	if g.Dot() != before {
		t.Error("aborted pass rewrote the graph")
	}
	// The same graph under the engine's budget does change, so the
	// abort above is what kept it untouched.
	if g.eliminateDontCares(maxContextNodes, &st) == 0 {
		t.Fatal("the don't-care pass has nothing to remove on timerlike")
	}
}

// TestReduceRandomMachines is the property test: for random
// deterministic machines, the reduced graph is observably equivalent
// to the unreduced graph (exhaustively over the care-set outcome
// space), still realises the reactive function, and still matches the
// reference interpreter on random snapshots.
func TestReduceRandomMachines(t *testing.T) {
	cfg := randcfsm.DefaultConfig()
	for seed := int64(1); seed <= 12; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			m := randcfsm.New(rand.New(rand.NewSource(seed)), cfg)
			r, err := cfsm.BuildReactive(m.C)
			if err != nil {
				t.Fatal(err)
			}
			g := buildGraph(t, m.C, OrderSiftAfterSupport)
			ref := cloneGraph(g)
			st := g.Reduce(ReduceOptions{})
			if err := g.CheckWellFormed(); err != nil {
				t.Fatalf("%s: %v", st, err)
			}
			if err := g.CheckEquivalent(ref); err != nil {
				t.Fatalf("%s: %v", st, err)
			}
			// randcfsm machines are structurally deterministic, so
			// straightening has nothing to remove and the exact
			// action-set check remains valid after reduction.
			if err := g.CheckFunctional(r); err != nil {
				t.Fatalf("%s: %v", st, err)
			}
			checkEquiv(t, m.C, g, seed*31)
		})
	}
}

// TestReduceDeterministic: reducing two identical builds yields
// byte-identical graphs (no map-iteration order leaks into rewrites).
func TestReduceDeterministic(t *testing.T) {
	render := func() string {
		c := timerLike()
		g := buildGraph(t, c, OrderSiftAfterSupport)
		g.Reduce(ReduceOptions{})
		return g.Dot()
	}
	first := render()
	for i := 0; i < 3; i++ {
		if got := render(); got != first {
			t.Fatalf("reduction not deterministic (run %d)", i+1)
		}
	}
}

// reduceGoldenRecord pins the reduction statistics for a machine and
// ordering. Regenerate with: go test ./internal/sgraph -run Golden -update
type reduceGoldenRecord struct {
	Machine  string `json:"machine"`
	Ordering string `json:"ordering"`
	Stats    ReduceStats
}

func TestReduceGoldenStats(t *testing.T) {
	machines := []struct {
		name  string
		build func() *cfsm.CFSM
	}{
		{"simple", simple},
		{"counter", counter},
		{"timerlike", timerLike},
		{"rand7", func() *cfsm.CFSM {
			return randcfsm.New(rand.New(rand.NewSource(7)), randcfsm.DefaultConfig()).C
		}},
		{"rand23", func() *cfsm.CFSM {
			return randcfsm.New(rand.New(rand.NewSource(23)), randcfsm.DefaultConfig()).C
		}},
	}
	var got []reduceGoldenRecord
	for _, mk := range machines {
		for _, ord := range []Ordering{OrderNaive, OrderSiftAfterSupport} {
			g := buildGraph(t, mk.build(), ord)
			st := g.Reduce(ReduceOptions{})
			got = append(got, reduceGoldenRecord{Machine: mk.name, Ordering: ord.String(), Stats: st})
		}
	}
	path := filepath.Join("testdata", "reduce_golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d records", path, len(got))
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	var want []reduceGoldenRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d records, produced %d (run with -update)", len(want), len(got))
	}
	bad := 0
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			if bad++; bad <= 5 {
				t.Errorf("record %d (%s/%s):\n got %+v\nwant %+v",
					i, got[i].Machine, got[i].Ordering, got[i].Stats, want[i].Stats)
			}
		}
	}
	if bad > 5 {
		t.Errorf("... and %d more mismatches", bad-5)
	}
}

// TestCollapseStructuralTests is the regression for the
// pointer-equality bug: equal tests allocated separately (bypassing
// the CFSM's interning) must still be recognised as a common test.
func TestCollapseStructuralTests(t *testing.T) {
	c := cfsm.New("dupcollapse")
	a := c.AddInput("a", true)
	y := c.AddOutput("y", true)
	pa := c.Present(a)
	emit := c.Emit(y)
	// Two distinct allocations of the same predicate.
	dup1 := &cfsm.Test{Kind: cfsm.TestPredicate, Pred: expr.Eq(expr.V("?a"), expr.C(3))}
	dup2 := &cfsm.Test{Kind: cfsm.TestPredicate, Pred: expr.Eq(expr.V("?a"), expr.C(3))}

	g := &SGraph{C: c}
	g.Begin = g.newVertex(Begin)
	root := g.newVertex(Test)
	g.End = g.newVertex(End)
	act := g.newVertex(Assign)
	act.Action = emit
	act.Next = g.End
	mk := func(dup *cfsm.Test, c0, c1 *Vertex) *Vertex {
		v := g.newVertex(Test)
		v.Tests = []*cfsm.Test{dup}
		v.Children = []*Vertex{c0, c1}
		return v
	}
	root.Tests = []*cfsm.Test{pa}
	root.Children = []*Vertex{mk(dup1, g.End, act), mk(dup2, act, g.End)}
	g.Begin.Next = root
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	ref := cloneGraph(g)
	if collapsed := g.CollapseTests(16); collapsed != 1 {
		t.Fatalf("expected 1 collapse of structurally equal tests, got %d", collapsed)
	}
	if len(root.Tests) != 2 || len(root.Children) != 4 {
		t.Fatalf("collapsed root has %d tests / %d children", len(root.Tests), len(root.Children))
	}
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	// Semantics preserved over every snapshot shape that matters.
	for _, present := range []bool{false, true} {
		for _, av := range []int64{0, 3} {
			snap := c.NewSnapshot()
			snap.Present[a] = present
			snap.Values[a] = av
			want := ref.Evaluate(snap)
			got := g.Evaluate(snap)
			if want.Fired != got.Fired || len(want.Emitted) != len(got.Emitted) {
				t.Fatalf("present=%v a=%d: %+v vs %+v", present, av, want, got)
			}
		}
	}
}

// TestCollapseNested: the incremental parent-count loop must keep
// collapsing the same root as new layers are exposed, reaching the
// same fixed point as the old restart-from-scratch loop.
func TestCollapseNested(t *testing.T) {
	c := cfsm.New("nested")
	a := c.AddInput("a", true)
	b := c.AddInput("b", true)
	d := c.AddInput("d", true)
	y := c.AddOutput("y", false)
	pa, pb, pd := c.Present(a), c.Present(b), c.Present(d)

	g := &SGraph{C: c}
	g.Begin = g.newVertex(Begin)
	root := g.newVertex(Test)
	g.End = g.newVertex(End)
	leaf := func(k int64) *Vertex {
		v := g.newVertex(Assign)
		v.Action = c.EmitV(y, expr.C(k))
		v.Next = g.End
		return v
	}
	mkTest := func(t0 *cfsm.Test, c0, c1 *Vertex) *Vertex {
		v := g.newVertex(Test)
		v.Tests = []*cfsm.Test{t0}
		v.Children = []*Vertex{c0, c1}
		return v
	}
	// Two layers below the root, each closed: root(pa) -> pb -> pd.
	var mids []*Vertex
	for i := int64(0); i < 2; i++ {
		lo := mkTest(pd, leaf(4*i), leaf(4*i+1))
		hi := mkTest(pd, leaf(4*i+2), leaf(4*i+3))
		mids = append(mids, mkTest(pb, lo, hi))
	}
	root.Tests = []*cfsm.Test{pa}
	root.Children = []*Vertex{mids[0], mids[1]}
	g.Begin.Next = root
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	ref := cloneGraph(g)
	if collapsed := g.CollapseTests(16); collapsed != 2 {
		t.Fatalf("expected 2 nested collapses, got %d", collapsed)
	}
	if len(root.Tests) != 3 || len(root.Children) != 8 {
		t.Fatalf("collapsed root has %d tests / %d children", len(root.Tests), len(root.Children))
	}
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	for mask := 0; mask < 8; mask++ {
		snap := c.NewSnapshot()
		snap.Present[a] = mask&4 != 0
		snap.Present[b] = mask&2 != 0
		snap.Present[d] = mask&1 != 0
		want := ref.Evaluate(snap)
		got := g.Evaluate(snap)
		if len(want.Emitted) != 1 || len(got.Emitted) != 1 ||
			want.Emitted[0] != got.Emitted[0] {
			t.Fatalf("mask=%d: %+v vs %+v", mask, want, got)
		}
	}
}

// TestReachableDeepChain: the iterative traversals must survive a
// path length far beyond any recursion budget, and Reachable must
// return the documented order.
func TestReachableDeepChain(t *testing.T) {
	const depth = 200000
	c := cfsm.New("deep")
	y := c.AddOutput("y", true)
	emit := c.Emit(y)
	g := &SGraph{C: c}
	g.Begin = g.newVertex(Begin)
	g.End = g.newVertex(End)
	prev := g.Begin
	for i := 0; i < depth; i++ {
		v := g.newVertex(Assign)
		v.Action = emit
		prev.Next = v
		prev = v
	}
	prev.Next = g.End
	order := g.Reachable()
	if len(order) != depth+2 {
		t.Fatalf("reachable returned %d vertices, want %d", len(order), depth+2)
	}
	if order[0] != g.Begin || order[len(order)-1] != g.End {
		t.Fatal("reachable order does not start at BEGIN / end at END")
	}
	if err := g.CheckWellFormed(); err != nil {
		t.Fatal(err)
	}
	if n := g.Parents()[g.End.ID]; n != 1 {
		t.Fatalf("END in-degree %d, want 1", n)
	}
}

// TestReachableMatchesRecursivePreorder pins the iterative traversal
// to the recursive DFS preorder it replaced — codegen's fall-through
// layout depends on this exact sequence.
func TestReachableMatchesRecursivePreorder(t *testing.T) {
	recursive := func(g *SGraph) []*Vertex {
		var order []*Vertex
		seen := make(map[*Vertex]bool)
		var walk func(v *Vertex)
		walk = func(v *Vertex) {
			if seen[v] {
				return
			}
			seen[v] = true
			order = append(order, v)
			switch v.Kind {
			case Test:
				for _, c := range v.Children {
					walk(c)
				}
			case Begin, Assign:
				walk(v.Next)
			}
		}
		walk(g.Begin)
		return order
	}
	machines := []struct {
		name  string
		build func() *cfsm.CFSM
	}{{"simple", simple}, {"counter", counter}, {"timerlike", timerLike}}
	for _, mk := range machines {
		for _, ord := range []Ordering{OrderNaive, OrderSiftAfterSupport} {
			g := buildGraph(t, mk.build(), ord)
			want := recursive(g)
			got := g.Reachable()
			if len(want) != len(got) {
				t.Fatalf("%s/%s: %d vs %d vertices", mk.name, ord, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("%s/%s: order diverges at position %d", mk.name, ord, i)
				}
			}
		}
	}
	// Also over random machines, where sharing produces real DAG shapes.
	for seed := int64(1); seed <= 8; seed++ {
		m := randcfsm.New(rand.New(rand.NewSource(seed)), randcfsm.DefaultConfig())
		g := buildGraph(t, m.C, OrderSiftAfterSupport)
		want := recursive(g)
		got := g.Reachable()
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("seed %d: iterative preorder diverges from recursive", seed)
		}
	}
}
