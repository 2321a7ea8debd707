package bdd

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSwapDeltaMatchesSize drives swapLevels directly with the cost
// state active and checks, after every adjacent swap at every level,
// that the returned delta keeps the incremental cost equal to a full
// Size(roots...) recount. This is the default-build version of the
// bdddebug per-swap assertion.
func TestSwapDeltaMatchesSize(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		r := rand.New(rand.NewSource(int64(9300 + trial)))
		m := New()
		vs := newVars(m, 10)
		var roots []Node
		for i := 0; i < 3; i++ {
			f := randomFunc(m, vs, r)
			m.Protect(f)
			roots = append(roots, f)
		}
		// Cost roots are a strict subset: the swap bookkeeping must
		// ignore nodes reachable only from the other protected
		// functions.
		m.sift.roots = roots[:1]
		m.gc(m.sift.roots)
		m.rebuildSiftCost()
		m.sift.on = true
		if got, want := m.sift.size, m.Size(roots[0]); got != want {
			t.Fatalf("trial %d: rebuilt cost %d, Size %d", trial, got, want)
		}
		size := m.sift.size
		for sweep := 0; sweep < 3; sweep++ {
			for x := 0; x+1 < m.NumVars(); x++ {
				size += m.swapLevels(x)
				if want := m.Size(roots[0]); size != want {
					t.Fatalf("trial %d sweep %d level %d: incremental cost %d, Size %d",
						trial, sweep, x, size, want)
				}
			}
		}
		m.sift.on = false
		m.sift.roots = nil
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The other protected functions must have survived the swaps
		// untouched as functions.
		for _, f := range roots {
			if f == False || f == True {
				continue
			}
			if m.Size(f) == 0 {
				t.Fatalf("trial %d: protected root lost", trial)
			}
		}
	}
}

// TestSiftFastPathDisjointSupports sifts a manager holding two
// functions over disjoint variable sets: swaps between the two
// support halves must take the interaction-matrix relabel path (no
// table scan, no cache bump), and the result must stay canonical and
// semantically intact.
func TestSiftFastPathDisjointSupports(t *testing.T) {
	m := New()
	vs := newVars(m, 12)
	f := False // badly interleaved pairs over the even variables
	g := False // and over the odd variables
	for j := 0; j+6 < 12; j += 2 {
		f = m.Or(f, m.And(m.VarNode(vs[j]), m.VarNode(vs[j+6])))
		g = m.Or(g, m.And(m.VarNode(vs[j+1]), m.VarNode(vs[j+7])))
	}
	m.Protect(f)
	m.Protect(g)
	truth := func(n Node) []bool {
		var tt []bool
		for a := 0; a < 1<<12; a++ {
			tt = append(tt, m.Eval(n, func(v Var) bool { return a&(1<<uint(v)) != 0 }))
		}
		return tt
	}
	wantF, wantG := truth(f), truth(g)

	m.Sift(SiftOptions{})
	if m.SwapsSkipped == 0 {
		t.Error("no swap took the non-interacting fast path on disjoint supports")
	}
	if m.Swaps == 0 {
		t.Error("sift performed no full swaps; the scenario is degenerate")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(truth(f), wantF) || !reflect.DeepEqual(truth(g), wantG) {
		t.Error("sifting changed a function's semantics")
	}
	if len(m.sift.interact) != 0 {
		t.Error("interaction matrix not cleared after Sift")
	}
}

// TestSiftLowerBoundPrunes checks that lower-bound pruning fires on a
// diagram with a strongly preferred order and that pruning leaves the
// final order the pre-incremental sifter recorded.
func TestSiftLowerBoundPrunes(t *testing.T) {
	m := New()
	vs := newVars(m, 14)
	f := False
	for j := 0; j < 7; j++ {
		f = m.Or(f, m.And(m.VarNode(vs[j]), m.VarNode(vs[j+7])))
	}
	m.Protect(f)
	m.Sift(SiftOptions{Passes: 2})
	if m.LBPrunes == 0 {
		t.Error("lower-bound pruning never fired across two passes")
	}
	checkOrders(t, "prune", []orderRecord{{0, orderString(m)}})
	if m.CostEvals == 0 {
		t.Error("CostEvals never advanced")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
