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

// TestSwapFreesAtDeath drives swapLevels with cost tracking on and
// every protected root a cost root, so nodes are freed the moment they
// die. After every swap the unique tables must hold exactly the
// physical nodes with a cost-referenced polarity, every arena slot
// off the free list must be one of them, and the kernel invariants
// must hold.
func TestSwapFreesAtDeath(t *testing.T) {
	for trial := 0; trial < 25; trial++ {
		r := rand.New(rand.NewSource(int64(9400 + trial)))
		m := New()
		vs := newVars(m, 10)
		var roots []Node
		for i := 0; i < 3; i++ {
			f := randomFunc(m, vs, r)
			m.Protect(f)
			roots = append(roots, f)
		}
		truth := truthTables(m, roots, len(vs))
		m.sift.roots = roots
		m.gc(m.sift.roots)
		m.rebuildSiftCost()
		if !m.sift.frees {
			t.Fatalf("trial %d: frees off with every protected root a cost root", trial)
		}
		m.sift.on = true
		freed := 0
		for sweep := 0; sweep < 3; sweep++ {
			for x := 0; x+1 < m.NumVars(); x++ {
				free := len(m.free)
				m.swapLevels(x)
				if len(m.free) > free {
					freed += len(m.free) - free
				}
				pop := 0
				for v := range m.unique {
					pop += int(m.unique[v].count)
				}
				live := 0
				for i := 1; i < len(m.nodes); i++ {
					if h := 2 * i; h+1 < len(m.sift.ref) && (m.sift.ref[h] > 0 || m.sift.ref[h+1] > 0) {
						live++
					}
				}
				if pop != live || pop != m.NumNodes()-1 {
					t.Fatalf("trial %d sweep %d level %d: %d table entries, %d live nodes, %d arena nodes",
						trial, sweep, x, pop, live, m.NumNodes()-1)
				}
				if err := m.CheckInvariants(); err != nil {
					t.Fatalf("trial %d sweep %d level %d: %v", trial, sweep, x, err)
				}
			}
		}
		m.sift.on = false
		m.sift.roots = nil
		if trial == 0 && freed == 0 {
			t.Fatal("no node was freed at death; the scenario is degenerate")
		}
		if !reflect.DeepEqual(truthTables(m, roots, len(vs)), truth) {
			t.Fatalf("trial %d: swaps changed a protected function", trial)
		}
	}
}

// TestSiftGuardOffKeepsProtectedRoots sifts for a cost root list that
// leaves a protected root out. Freeing at death must stay off, so the
// protected function survives live and with its truth table intact,
// both when no cost root reaches it and when it is a subfunction of
// the cost root that a swap can stop sharing (f = a ∧ g: moving a
// below g's variables re-expresses f without g's root node).
func TestSiftGuardOffKeepsProtectedRoots(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		reachable := trial%2 == 0
		r := rand.New(rand.NewSource(int64(9500 + trial)))
		m := New()
		vs := newVars(m, 8)
		g := randomFunc(m, vs[1:], r)
		f := m.And(m.VarNode(vs[0]), g)
		p := g
		if !reachable {
			p = randomFunc(m, vs, r)
		}
		m.Protect(p)
		truth := truthTables(m, []Node{p}, len(vs))
		m.Sift(SiftOptions{Roots: []Node{f}, Passes: 2})
		if m.sift.frees {
			t.Fatalf("trial %d: frees on with a protected root outside the cost roots", trial)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if m.nodes[p>>1].dead {
			t.Fatalf("trial %d (reachable %v): protected root %d was freed", trial, reachable, p)
		}
		if !reflect.DeepEqual(truthTables(m, []Node{p}, len(vs)), truth) {
			t.Fatalf("trial %d (reachable %v): sifting changed a protected function", trial, reachable)
		}
	}
}

// truthTables evaluates each function on every assignment of the
// first n variables.
func truthTables(m *Manager, fs []Node, n int) [][]bool {
	out := make([][]bool, len(fs))
	for i, f := range fs {
		for a := 0; a < 1<<n; a++ {
			out[i] = append(out[i], m.Eval(f, func(v Var) bool { return a&(1<<uint(v)) != 0 }))
		}
	}
	return out
}
