package bdd

import (
	"math/rand"
	"testing"
)

// TestSiftZeroCacheResets is the regression test for the
// generation-stamped operation cache: a full sift pass (thousands of
// adjacent swaps plus the surrounding GCs) must invalidate the cache
// by bumping the generation only, never by reallocating it.
func TestSiftZeroCacheResets(t *testing.T) {
	m := New()
	vs := newVars(m, 12)
	f := False
	// Bad interleaving of 6 pairs, so sifting has real work to do.
	for j := 0; j < 6; j++ {
		f = m.Or(f, m.And(m.VarNode(vs[j]), m.VarNode(vs[j+6])))
	}
	m.Protect(f)

	resets := m.CacheResets
	gen := m.cacheGen
	m.Sift(SiftOptions{Passes: 2})
	if m.Swaps == 0 {
		t.Fatal("sift performed no swaps; the regression test exercises nothing")
	}
	if m.CacheResets != resets {
		t.Errorf("sifting reallocated the operation cache %d time(s); want generation bumps only",
			m.CacheResets-resets)
	}
	if m.cacheGen == gen {
		t.Error("sifting did not advance the cache generation")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCacheGrowthCountsResets pins the other side of the contract:
// cache growth (from public operation entry points) is a real
// reallocation and must be visible in CacheResets.
func TestCacheGrowthCountsResets(t *testing.T) {
	m := New()
	vs := newVars(m, 18)
	resets := m.CacheResets
	// Build something large enough that the arena outgrows the
	// initial cache several times.
	f := False
	r := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		f = m.Or(f, randomFunc(m, vs, r))
	}
	if len(m.nodes) <= cacheMinSize*2 {
		t.Skipf("arena stayed at %d nodes; growth not exercised", len(m.nodes))
	}
	if m.CacheResets == resets {
		t.Error("arena outgrew the cache but CacheResets never advanced")
	}
	if len(m.cache) <= cacheMinSize {
		t.Errorf("cache never grew (still %d entries for %d arena nodes)", len(m.cache), len(m.nodes))
	}
}

// TestApplyOpsCrossIteAndEval is a randomized crosstest in the spirit
// of internal/crosstest: the specialized And/Or/Xor/Xnor/Not operators
// must agree (a) node-identically with the equivalent expressed
// through the general three-operand Ite recursion, and (b) pointwise
// with truth tables computed via Eval over every assignment. It runs
// under both the default and the bdddebug builds.
func TestApplyOpsCrossIteAndEval(t *testing.T) {
	trials := 40
	if testing.Short() {
		trials = 8
	}
	const nv = 6
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(4000 + trial)))
		m := New()
		vs := newVars(m, nv)
		f := randomFunc(m, vs, r)
		g := randomFunc(m, vs, r)
		ft := evalAll(m, f, vs)
		gt := evalAll(m, g, vs)

		// fromTT rebuilds a function from its truth table as an OR of
		// minterm cubes — a construction that exercises only mk and
		// the unique tables, independent of the apply recursions under
		// test. Strong canonicity then makes handle equality a full
		// functional-equivalence check.
		fromTT := func(tt []bool) Node {
			out := False
			vals := make([]bool, nv)
			for a, on := range tt {
				if !on {
					continue
				}
				for i := range vals {
					vals[i] = a&(1<<uint(i)) != 0
				}
				out = m.Or(out, m.Cube(vs, vals))
			}
			return out
		}

		check := func(name string, got Node, want func(a, b bool) bool) {
			t.Helper()
			wt := make([]bool, len(ft))
			for i := range wt {
				wt[i] = want(ft[i], gt[i])
			}
			if ref := fromTT(wt); got != ref {
				t.Fatalf("trial %d %s: specialized op %s != cube-built reference %s",
					trial, name, m.String(got), m.String(ref))
			}
			tt := evalAll(m, got, vs)
			for i := range tt {
				if tt[i] != wt[i] {
					t.Fatalf("trial %d %s: wrong value at minterm %d", trial, name, i)
				}
			}
		}

		check("and", m.And(f, g), func(a, b bool) bool { return a && b })
		check("or", m.Or(f, g), func(a, b bool) bool { return a || b })
		check("xor", m.Xor(f, g), func(a, b bool) bool { return a != b })
		check("xnor", m.Xnor(f, g), func(a, b bool) bool { return a == b })
		check("not", m.Not(f), func(a, b bool) bool { return !a })

		// Ite-derived identities through the general three-operand
		// recursion (g and h are distinct internal nodes here, so none
		// of the terminal forwarding rules apply).
		notG := m.Not(g)
		if m.Xor(f, g) != m.Ite(f, notG, g) {
			t.Fatalf("trial %d: Xor != Ite(f, !g, g)", trial)
		}
		if m.Xnor(f, g) != m.Ite(f, g, notG) {
			t.Fatalf("trial %d: Xnor != Ite(f, g, !g)", trial)
		}

		// Quantification and cofactoring against Eval ground truth.
		v := vs[r.Intn(nv)]
		bit := 1 << uint(indexOf(vs, v))
		ex := m.Exists(f, v)
		ext := evalAll(m, ex, vs)
		co1 := evalAll(m, m.Cofactor(f, v, true), vs)
		co0 := evalAll(m, m.Cofactor(f, v, false), vs)
		for a := range ext {
			f0, f1 := ft[a&^bit], ft[a|bit]
			if ext[a] != (f0 || f1) {
				t.Fatalf("trial %d exists: wrong value at minterm %d", trial, a)
			}
			if co1[a] != f1 || co0[a] != f0 {
				t.Fatalf("trial %d cofactor: wrong value at minterm %d", trial, a)
			}
		}

		// The new unique tables must hold together after the workload.
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

func indexOf(vs []Var, v Var) int {
	for i, w := range vs {
		if w == v {
			return i
		}
	}
	return -1
}

// TestUniqueTableChurn drives the open-addressing tables through heavy
// delete/reinsert traffic (repeated GC cycles over changing live sets)
// and checks the invariants after every collection — live-entry
// counts, the absence of tombstones, probe-chain reachability and
// table shrinking all get exercised.
func TestUniqueTableChurn(t *testing.T) {
	m := New()
	vs := newVars(m, 8)
	r := rand.New(rand.NewSource(31))
	var kept []Node
	var tts [][]bool
	for round := 0; round < 25; round++ {
		f := randomFunc(m, vs, r)
		m.Protect(f)
		kept = append(kept, f)
		tts = append(tts, evalAll(m, f, vs))
		// Garbage plus a GC every round.
		for i := 0; i < 5; i++ {
			randomFunc(m, vs, r)
		}
		if len(kept) > 3 { // rotate protections to force real deletions
			m.Unprotect(kept[0])
			kept = kept[1:]
			tts = tts[1:]
		}
		m.GC()
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for i, f := range kept {
			got := evalAll(m, f, vs)
			for k := range got {
				if got[k] != tts[i][k] {
					t.Fatalf("round %d: protected function %d changed at minterm %d", round, i, k)
				}
			}
		}
	}
	if m.GCs < 25 {
		t.Fatalf("expected at least 25 GCs, got %d", m.GCs)
	}
}

// TestAutoGCDuringSift forces the sifting auto-collection heuristic to
// fire (by lowering the arena threshold) and checks that cost roots
// passed via SiftOptions.Roots survive it even when unprotected.
func TestAutoGCDuringSift(t *testing.T) {
	m := New()
	m.autoGCMin = 32 // make the dead-ratio trigger reachable for a small test
	vs := newVars(m, 12)
	f := False
	for j := 0; j < 6; j++ {
		f = m.Or(f, m.And(m.VarNode(vs[j]), m.VarNode(vs[j+6])))
	}
	// f stays unprotected: only SiftOptions.Roots keeps it alive.
	tt := evalAll(m, f, vs)
	gcs := m.GCs
	m.Sift(SiftOptions{Passes: 2, Roots: []Node{f}})
	if m.GCs-gcs <= 2 {
		t.Fatalf("want auto-collections beyond Sift's entry/exit GCs, got %d", m.GCs-gcs)
	}
	tt2 := evalAll(m, f, vs)
	for i := range tt {
		if tt[i] != tt2[i] {
			t.Fatalf("sift with unprotected cost root changed the function at minterm %d", i)
		}
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkKernelApply measures the raw apply/cache layer: pairwise
// combinations of random functions, reporting peak live nodes and the
// lossy-cache hit rate.
func BenchmarkKernelApply(b *testing.B) {
	var m *Manager
	for i := 0; i < b.N; i++ {
		m = New()
		vs := newVars(m, 14)
		r := rand.New(rand.NewSource(7))
		fs := make([]Node, 12)
		for j := range fs {
			fs[j] = randomFunc(m, vs, r)
		}
		acc := False
		for j, f := range fs {
			switch j % 3 {
			case 0:
				acc = m.Or(acc, f)
			case 1:
				acc = m.Xor(acc, f)
			default:
				acc = m.And(acc, m.Or(f, acc))
			}
		}
	}
	b.ReportMetric(float64(m.PeakNodes), "peak-nodes")
	if tot := m.Hits + m.Misses; tot > 0 {
		b.ReportMetric(100*float64(m.Hits)/float64(tot), "cache-hit-%")
	}
}
