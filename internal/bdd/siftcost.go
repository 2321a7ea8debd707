package bdd

import (
	"fmt"
	"slices"
)

// Incremental sifting cost. The classical sifter re-measured
// Size(roots...) — a full DAG traversal — after every adjacent swap,
// making one block-sift O(swaps × live-nodes). Following CUDD, the
// swap itself now maintains the cost: siftState tracks, for the
// duration of one Sift call, how many nodes are reachable from the
// cost roots in total (size) and per variable (keys), driven by a
// per-node reference counter over the cost-reachable subgraph.
//
// The reference counter is swap-local, not a kernel-wide refcount:
// it is rebuilt from the cost roots at each pass start (and after the
// automatic collections between blocks) and updated only by
// swapLevels. ref is indexed by full handle — complement bit included
// — because the cost is the classical node count: with complement
// edges one physical node can serve two distinct subfunctions (its two
// polarities), and each polarity is counted and tracked independently,
// keeping sizes and final orders identical to the pre-complement
// kernel. ref[h] counts the classical edges into the subfunction h
// from cost-reachable parents plus the times h occurs in the root
// list, so ref[h] > 0 exactly when that subfunction is reachable from
// the cost roots. This matters
// because adjacent swaps orphan re-expressed children, and a cost that
// merely summed table populations would count the orphans and diverge
// from the Size(roots...) the classical sifter minimised. Tracking
// reachability keeps the incremental cost byte-identical to the old
// cost at every step (the bdddebug build asserts this after every
// swap), so final orderings — and everything synthesized from them —
// are unchanged.
//
// The same counts reclaim the orphans, as CUDD does during
// reordering. When every protected root is itself a cost root, every
// live node is cost-reachable (the pass-start collection keeps only
// what the protected and cost roots reach), so a physical node whose
// two polarities both drop to ref 0 is garbage: costRefDel deletes it
// from its unique table and frees its arena slot on the spot, and the
// tables hold only live nodes for the whole pass. rebuildSiftCost
// decides this once per rebuild and records it in frees. With any
// protected root outside the cost roots the guard stays off: such a
// root may be reachable from the cost roots now and stop being so
// after a swap, and freeing it would invalidate a handle the caller
// still holds. Orphans then stay in their unique tables until the
// next collection.
//
// An adjacent swap only changes which nodes are cost-reachable at the
// two swapped levels: every grandchild cofactor is re-referenced by
// the re-expressed structure before the old child loses its last
// reference, so death never cascades past the swapped pair, and a
// node revived by mk sharing has children that never left the region.
// That locality is also what makes the lower bounds in siftBlock
// sound (see reorder.go).
type siftState struct {
	on    bool    // cost tracking active (inside a sift pass)
	frees bool    // dead nodes are freed at once (every protected root is a cost root)
	roots []Node  // resolved cost roots, fixed for one Sift call
	ref   []int32 // per-node edge count from the cost-reachable region
	keys  []int32 // per-Var count of cost-reachable nodes
	size  int     // total cost-reachable nodes == Size(roots...)

	// interact is the variable interaction matrix: bit u*nv+v is set
	// when u and v occur together in the support of a live root
	// function. Two adjacent non-interacting variables can be swapped
	// by relabelling the order alone — no node has one above the
	// other — which swapLevels exploits as its O(1) fast path.
	// Supports are invariant under reordering, so one matrix stays
	// valid for the whole Sift call.
	interact []uint64
	nv       int // NumVars when the matrix was built

	stack []Node // scratch for costRefAdd/costRefDel cascades
}

// resolveCostRoots returns the roots the sift cost function measures,
// resolved once per Sift call (building the list from the protected
// root map on every siftBlock call used to allocate in the hottest
// loop of the synthesis flow).
func (m *Manager) resolveCostRoots(opts SiftOptions) []Node {
	if opts.Roots != nil {
		return opts.Roots
	}
	roots := make([]Node, 0, len(m.roots))
	for r := range m.roots {
		roots = append(roots, r)
	}
	return roots
}

// rebuildSiftCost recomputes ref, keys and size from the cost roots.
// Called at pass start and after each collection inside a pass (GC
// frees swap orphans and recycles their arena slots, so stale
// counters cannot be trusted across it).
func (m *Manager) rebuildSiftCost() {
	st := &m.sift
	need := 2 * len(m.nodes) // handle-indexed: both polarities per slot
	if cap(st.ref) < need {
		st.ref = make([]int32, need)
	} else {
		st.ref = st.ref[:need]
		for i := range st.ref {
			st.ref[i] = 0
		}
	}
	if cap(st.keys) < len(m.perm) {
		st.keys = make([]int32, len(m.perm))
	} else {
		st.keys = st.keys[:len(m.perm)]
		for i := range st.keys {
			st.keys[i] = 0
		}
	}
	st.size = 0
	for _, r := range st.roots {
		m.costRefAdd(r)
	}
	st.frees = m.protectedAreCostRoots()
}

// protectedAreCostRoots reports whether every protected root occurs in
// the cost root list. The root-list reference then keeps each one
// counted through every swap, and together with the collection that
// precedes every rebuild it makes cost-reachability and liveness the
// same thing, which is what lets costRefDel free a node at death.
func (m *Manager) protectedAreCostRoots() bool {
	for r := range m.roots {
		if !r.IsConst() && !slices.Contains(m.sift.roots, r) {
			return false
		}
	}
	return true
}

// costRefAdd records one new reference into the cost-reachable region:
// an edge from a counted parent, or one occurrence in the root list.
// A node entering the region (0 → 1) starts being counted and
// propagates one reference to each of its children; the cascade is
// iterative on a reused stack, so the hot swap path never recurses or
// allocates.
func (m *Manager) costRefAdd(n Node) {
	if n.IsConst() {
		return
	}
	st := &m.sift
	stack := append(st.stack[:0], n)
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// mk may have grown the arena past the rebuilt counter array;
		// one grow covers every handle of the current arena, and fresh
		// slots start unreferenced.
		if n := len(st.ref); int(w) >= n {
			st.ref = slices.Grow(st.ref, 2*len(m.nodes)-n)[:2*len(m.nodes)]
			clear(st.ref[n:])
		}
		st.ref[w]++
		if st.ref[w] == 1 {
			c := w & 1
			nd := &m.nodes[w>>1]
			st.keys[nd.v]++
			st.size++
			if lo := nd.lo ^ c; !lo.IsConst() {
				stack = append(stack, lo)
			}
			if hi := nd.hi ^ c; !hi.IsConst() {
				stack = append(stack, hi)
			}
		}
	}
	st.stack = stack[:0]
}

// costRefDel removes one reference; a node leaving the region
// (1 → 0) stops being counted and withdraws its references from its
// children. When frees is on and the node's other polarity is already
// unreferenced, the physical node is dead: it leaves its unique table
// and its arena slot goes on the free list for mk to reuse. Otherwise
// it stays in its table as an orphan until the next collection.
func (m *Manager) costRefDel(n Node) {
	if n.IsConst() {
		return
	}
	st := &m.sift
	stack := append(st.stack[:0], n)
	for len(stack) > 0 {
		w := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		st.ref[w]--
		if st.ref[w] == 0 {
			c := w & 1
			nd := &m.nodes[w>>1]
			st.keys[nd.v]--
			st.size--
			if lo := nd.lo ^ c; !lo.IsConst() {
				stack = append(stack, lo)
			}
			if hi := nd.hi ^ c; !hi.IsConst() {
				stack = append(stack, hi)
			}
			if st.frees && st.ref[w^1] == 0 {
				m.unique[nd.v].delete(m.nodes, nd.lo, nd.hi)
				nd.dead = true
				m.free = append(m.free, w&^1)
			}
		}
	}
	st.stack = stack[:0]
}

// buildInteract computes the interaction matrix from the supports of
// the given roots. The roots must cover every function whose nodes
// can appear in the unique tables during the Sift call — the
// protected roots as well as the cost roots — because the fast-path
// relabel in swapLevels is only sound when *no* live node has the
// upper variable above the lower one. (A variable pair missing from
// every cost support but present in a protected-only function would
// otherwise be corrupted.) Every table node denotes a cofactor of
// some root function, and cofactor supports are subsets of root
// supports, so pairwise support membership is a sound
// over-approximation for the whole call, including swap orphans.
func (m *Manager) buildInteract(roots []Node) {
	st := &m.sift
	nv := len(m.perm)
	st.nv = nv
	words := (nv*nv + 63) / 64
	if cap(st.interact) < words {
		st.interact = make([]uint64, words)
	} else {
		st.interact = st.interact[:words]
		for i := range st.interact {
			st.interact[i] = 0
		}
	}
	inSup := make([]bool, nv)
	sup := make([]Var, 0, nv)
	for _, r := range roots {
		// Support is polarity-invariant, so the walk visits physical
		// nodes (regular handles).
		r &^= 1
		if r == 0 {
			continue
		}
		sup = sup[:0]
		gen := m.visitEpoch()
		stack := append(m.markStack[:0], r)
		m.visited[r] = gen
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			nd := &m.nodes[n>>1]
			if !inSup[nd.v] {
				inSup[nd.v] = true
				sup = append(sup, nd.v)
			}
			if lo := nd.lo &^ 1; lo != 0 && m.visited[lo] != gen {
				m.visited[lo] = gen
				stack = append(stack, lo)
			}
			if hi := nd.hi; hi != 0 && m.visited[hi] != gen {
				m.visited[hi] = gen
				stack = append(stack, hi)
			}
		}
		m.markStack = stack[:0]
		for i, u := range sup {
			for _, v := range sup[i+1:] {
				m.setInteract(u, v)
			}
			inSup[u] = false
		}
	}
}

// clearInteract drops the matrix when Sift returns: operations run
// after sifting can create functions with new variable pairings,
// which would invalidate the fast-path soundness argument.
func (m *Manager) clearInteract() {
	m.sift.interact = m.sift.interact[:0]
}

func (m *Manager) setInteract(u, v Var) {
	i := int(u)*m.sift.nv + int(v)
	j := int(v)*m.sift.nv + int(u)
	m.sift.interact[i>>6] |= 1 << (uint(i) & 63)
	m.sift.interact[j>>6] |= 1 << (uint(j) & 63)
}

// varsInteract reports whether u and v interact; with no matrix built
// it conservatively answers true (full swap).
func (m *Manager) varsInteract(u, v Var) bool {
	st := &m.sift
	if len(st.interact) == 0 {
		return true
	}
	i := int(u)*st.nv + int(v)
	return st.interact[i>>6]&(1<<(uint(i)&63)) != 0
}

// verifySiftCost recomputes the cost from scratch and panics on any
// divergence from the incrementally maintained counters. Compiled
// only under the bdddebug build tag (siftCostChecks), where it runs
// after every adjacent swap: the incremental cost must equal
// Size(roots...) at all times, or final orderings could silently
// drift from the reference sifter.
func (m *Manager) verifySiftCost(where string) {
	st := &m.sift
	if !st.on {
		return
	}
	// The audit counts classical (node, polarity) pairs — the walk is
	// keyed by full handle, matching the incremental counters.
	keys := make([]int32, len(m.perm))
	size := 0
	seen := make(map[Node]bool)
	var walk func(n Node)
	walk = func(n Node) {
		if n.IsConst() || seen[n] {
			return
		}
		seen[n] = true
		c := n & 1
		nd := &m.nodes[n>>1]
		keys[nd.v]++
		size++
		walk(nd.lo ^ c)
		walk(nd.hi ^ c)
	}
	for _, r := range st.roots {
		walk(r)
	}
	if size != st.size {
		panic(fmt.Sprintf("bdd: %s: incremental sift cost %d != Size(roots...) %d", where, st.size, size))
	}
	for v := range keys {
		if keys[v] != st.keys[v] {
			panic(fmt.Sprintf("bdd: %s: incremental keys[%s] = %d, reachable count %d",
				where, m.names[v], st.keys[v], keys[v]))
		}
	}
	// Reference-count audit: ref[h] must equal the number of classical
	// edges into subfunction h from counted subfunctions plus h's
	// occurrences in the root list, and must be zero outside the
	// region.
	want := make(map[Node]int32)
	for n := range seen {
		c := n & 1
		nd := &m.nodes[n>>1]
		if lo := nd.lo ^ c; !lo.IsConst() {
			want[lo]++
		}
		if hi := nd.hi ^ c; !hi.IsConst() {
			want[hi]++
		}
	}
	for _, r := range st.roots {
		if !r.IsConst() {
			want[r]++
		}
	}
	for i := range st.ref {
		if st.ref[i] != want[Node(i)] {
			panic(fmt.Sprintf("bdd: %s: ref[%d] = %d, want %d", where, i, st.ref[i], want[Node(i)]))
		}
	}
	if !st.frees {
		return
	}
	// Free-at-death audit: the tables hold only live nodes — every
	// entry has a cost-referenced polarity — and no freed slot is
	// still filed in a table.
	for v := range m.unique {
		for _, s := range m.unique[v].slots {
			if s == emptySlot {
				continue
			}
			if m.nodes[s>>1].dead {
				panic(fmt.Sprintf("bdd: %s: unique[%s] holds freed node %d", where, m.names[v], s>>1))
			}
			if int(s|1) >= len(st.ref) || st.ref[s] == 0 && st.ref[s|1] == 0 {
				panic(fmt.Sprintf("bdd: %s: unique[%s] holds node %d with no live polarity", where, m.names[v], s>>1))
			}
		}
	}
	for _, f := range m.free {
		nd := &m.nodes[f>>1]
		if !nd.dead {
			panic(fmt.Sprintf("bdd: %s: free list holds live node %d", where, f>>1))
		}
	}
}
