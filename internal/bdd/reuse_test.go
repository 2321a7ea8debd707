package bdd

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"
)

// clusterPairs returns n child pairs whose home slots in a 16-slot
// table are the given homes, so inserting them in order builds one
// probe cluster of a known shape.
func clusterPairs(t *testing.T, homes []uint64) [][2]Node {
	shift := uint8(64 - bits.Len(uint(16-1)))
	var out [][2]Node
	used := map[[2]Node]bool{}
	for _, h := range homes {
		found := false
		for lo := Node(2); lo < 4096 && !found; lo++ {
			for hi := Node(2); hi < 64 && !found; hi += 2 {
				p := [2]Node{lo, hi}
				if hashPair(lo, hi)>>shift == h && !used[p] {
					used[p] = true
					out = append(out, p)
					found = true
				}
			}
		}
		if !found {
			t.Fatalf("no pair hashes to home slot %d", h)
		}
	}
	return out
}

// permutations calls fn with every ordering of 0..n-1.
func permutations(n int, fn func([]int)) {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			fn(p)
			return
		}
		for i := k; i < n; i++ {
			p[k], p[i] = p[i], p[k]
			rec(k + 1)
			p[k], p[i] = p[i], p[k]
		}
	}
	rec(0)
}

// TestUniqueTableBackwardShift builds one probe cluster that wraps past
// the end of a 16-slot table — entries displaced from the last two
// slots into slots 0.., interleaved with an entry whose home is slot
// 0 — and deletes its entries in every order. After each delete,
// every survivor must still be reached by lookup from its home slot,
// the deleted entries must be gone, and count must match: backward
// shift may move an entry back only when that keeps it after its home.
func TestUniqueTableBackwardShift(t *testing.T) {
	homes := []uint64{14, 15, 14, 0, 15, 1}
	pairs := clusterPairs(t, homes)
	nodes := make([]node, len(pairs)+1)
	for i, p := range pairs {
		nodes[i+1] = node{lo: p[0], hi: p[1]}
	}
	handle := func(i int) Node { return Node(i+1) << 1 }
	var sp slotPool
	permutations(len(pairs), func(order []int) {
		var tb uniqueTable
		tb.setSlots(sp.get(16))
		for i, p := range pairs {
			tb.insert(nodes, &sp, p[0], p[1], handle(i))
		}
		if len(tb.slots) != 16 || tb.slots[15] == emptySlot || tb.slots[0] == emptySlot {
			t.Fatalf("cluster does not wrap: %v", tb.slots)
		}
		gone := make([]bool, len(pairs))
		for k, d := range order {
			tb.delete(nodes, pairs[d][0], pairs[d][1])
			gone[d] = true
			live := 0
			for i, p := range pairs {
				got := tb.lookup(nodes, p[0], p[1])
				switch {
				case gone[i] && got != 0:
					t.Fatalf("order %v step %d: deleted entry %d still found", order, k, i)
				case !gone[i] && got != handle(i):
					t.Fatalf("order %v step %d: survivor %d unreachable (lookup %d, slots %v)",
						order, k, i, got, tb.slots)
				}
				if !gone[i] {
					live++
				}
			}
			if int(tb.count) != live {
				t.Fatalf("order %v step %d: count %d, want %d", order, k, tb.count, live)
			}
			occupied := 0
			for _, s := range tb.slots {
				if s != emptySlot {
					occupied++
				}
			}
			if occupied != live {
				t.Fatalf("order %v step %d: %d occupied slots for %d entries", order, k, occupied, live)
			}
		}
		sp.put(tb.slots)
	})
}

// managerRun is everything observable about one scripted run: the
// final order, the renderings and sizes of the tracked functions, and
// every statistic.
type managerRun struct {
	Order   string
	Funcs   []string
	Size    int
	Hits    int
	Misses  int
	Peak    int
	Swaps   int
	Skipped int
	Prunes  int
	Evals   int
	Resets  int
	Evicts  int
	GCs     int
	Passes  int
}

// scriptedRun plays a seeded script of kernel operations with
// collections, grows the op cache past its initial size, then sifts
// with precedence and groups, and records the outcome.
func scriptedRun(m *Manager, seed int64) managerRun {
	r := rand.New(rand.NewSource(seed))
	vs := newVars(m, 10+r.Intn(6))
	if err := m.Group(vs[2], vs[3]); err != nil {
		panic(err)
	}
	fs := []Node{m.VarNode(vs[0]), m.Not(m.VarNode(vs[1]))}
	for step := 0; step < 120; step++ {
		f, g, h := fs[r.Intn(len(fs))], fs[r.Intn(len(fs))], fs[r.Intn(len(fs))]
		var res Node
		switch r.Intn(7) {
		case 0:
			res = m.And(f, m.VarNode(vs[r.Intn(len(vs))]))
		case 1:
			res = m.Or(f, m.Not(m.VarNode(vs[r.Intn(len(vs))])))
		case 2:
			res = m.Xor(f, g)
		case 3:
			res = m.Ite(f, g, h)
		case 4:
			res = m.Exists(f, vs[r.Intn(len(vs))])
		case 5:
			res = m.Cofactor(f, vs[r.Intn(len(vs))], r.Intn(2) == 0)
		default:
			res = randomFunc(m, vs, r)
		}
		fs = append(fs, m.Protect(res))
		if step%23 == 22 {
			m.GC()
		}
	}
	m.Sift(SiftOptions{
		Passes:  2,
		Precede: func(a, b int32) bool { return a == int32(vs[0]) && b == int32(vs[len(vs)-1]) },
	})
	run := managerRun{
		Order: orderString(m), Size: m.Size(fs...),
		Hits: m.Hits, Misses: m.Misses, Peak: m.PeakNodes, Swaps: m.Swaps,
		Skipped: m.SwapsSkipped, Prunes: m.LBPrunes, Evals: m.CostEvals,
		Resets: m.CacheResets, Evicts: m.Evictions, GCs: m.GCs, Passes: m.SiftPasses,
	}
	for _, f := range fs {
		run.Funcs = append(run.Funcs, m.String(f))
	}
	return run
}

// freshManager returns a manager that owns no recycled storage, unlike
// New, which may hand out a released one.
func freshManager() *Manager {
	m := new(Manager)
	m.reset()
	return m
}

// TestReusedManagerMatchesFresh requires a manager reused after an
// unrelated run — New's reset of a released manager — to behave
// exactly like a fresh one: same order, same functions, same sizes and
// every statistic equal. Stale op-cache entries turned into hits, a
// stat left over, or a table or cache sized by the earlier life would
// all show here.
func TestReusedManagerMatchesFresh(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		want := scriptedRun(freshManager(), seed)
		if want.Resets == 0 || want.Swaps == 0 {
			t.Fatalf("seed %d: the script must grow the cache and swap: %+v", seed, want)
		}
		m := freshManager()
		scriptedRun(m, seed+100)
		m.reset()
		if cap(m.cache) <= cacheMinSize || cap(m.nodes) <= 1 {
			t.Fatalf("seed %d: reset kept no spare cache or arena capacity to reuse", seed)
		}
		if got := scriptedRun(m, seed); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: reused manager diverges\n got %+v\nwant %+v", seed, got, want)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		// The same through the pool: New may or may not return m.
		m.Release()
		if got := scriptedRun(New(), seed); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: manager from New diverges\n got %+v\nwant %+v", seed, got, want)
		}
	}
}

// TestReleaseTwicePanics pins the always-on misuse check.
func TestReleaseTwicePanics(t *testing.T) {
	m := New()
	m.NewVar("a")
	m.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("second Release did not panic")
		}
	}()
	m.Release()
}

// TestSiftCycleAllocs pins the allocations of one build → Sift → reset
// cycle on a warmed-up manager, the pattern a pipeline worker repeats
// per module: the arena, the tables, the op cache and the sift scratch
// are all reused, so only the sift's per-call bookkeeping allocates
// (cost roots, interaction scratch, block ordering).
// It calls reset directly, not New/Release, so the count does not
// depend on whether a sync.Pool kept the manager across a collection.
func TestSiftCycleAllocs(t *testing.T) {
	m := freshManager()
	names := make([]string, 16)
	for i := range names {
		names[i] = fmt.Sprint("x", i)
	}
	vs := make([]Var, len(names))
	cycle := func() {
		for i, name := range names {
			vs[i] = m.NewVar(name)
		}
		f := False
		for j := 0; j < 8; j++ { // bad interleaving of 8 pairs
			f = m.Or(f, m.And(m.VarNode(vs[j]), m.VarNode(vs[j+8])))
		}
		m.Protect(f)
		m.Sift(SiftOptions{})
		if m.Swaps == 0 {
			t.Fatal("sift performed no swaps")
		}
		m.reset()
	}
	cycle() // warm-up: grow every reusable buffer once
	if ownerChecks {
		return // the debug owner check and sift-cost audit allocate
	}
	const bound = 8
	if got := testing.AllocsPerRun(10, cycle); got > bound {
		t.Fatalf("build → Sift → reset allocates %v times per cycle, want at most %d", got, bound)
	}
}
