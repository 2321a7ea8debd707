package bdd

import (
	"fmt"
	"sort"
)

// swapLevels exchanges the variables at levels x and x+1 in place.
// Every node handle continues to denote the same function afterwards
// (the classical adjacent-variable swap). It returns the exact change
// in the sift cost — the number of nodes reachable from the active
// cost roots — so siftBlock can track cost incrementally instead of
// re-traversing the shared DAG after every swap; outside a sift pass
// the return value is 0. The operation cache is invalidated by a
// generation bump — sifting performs thousands of swaps per pass, so
// this path must not allocate.
//
// When the interaction matrix proves the two variables share no
// support, the swap degenerates to a pure relabelling of the order:
// no node has u above v (or vice versa), so no table is scanned, no
// node is touched, the cache stays valid, and the cost delta is zero.
func (m *Manager) swapLevels(x int) int {
	u := m.invperm[x]
	v := m.invperm[x+1]
	if len(m.sift.interact) != 0 && !m.varsInteract(u, v) {
		m.SwapsSkipped++
		m.perm[u], m.perm[v] = x+1, x
		m.invperm[x], m.invperm[x+1] = v, u
		if siftCostChecks {
			m.verifySiftCost("fast swap")
		}
		return 0
	}
	m.Swaps++
	st := &m.sift
	sizeBefore := st.size

	// Nodes labelled u that reference a v-labelled child must be
	// re-expressed with v on top. Collect them first (into a reused
	// scratch buffer); the unique table is mutated below. Table slots
	// hold regular handles; a child's complement bit does not change
	// which physical node it labels.
	tu := &m.unique[u]
	affected := m.swapScratch[:0]
	for _, n := range tu.slots {
		if n == emptySlot {
			continue
		}
		nd := &m.nodes[n>>1]
		if m.nodes[nd.lo>>1].v == v || m.nodes[nd.hi>>1].v == v {
			affected = append(affected, n)
		}
	}
	for _, n := range affected {
		nd := &m.nodes[n>>1]
		tu.delete(m.nodes, nd.lo, nd.hi)
	}
	for _, n := range affected {
		f0, f1 := m.nodes[n>>1].lo, m.nodes[n>>1].hi
		var f00, f01, f10, f11 Node
		// The stored lo arc may be complemented: its cofactors inherit
		// the bit. The stored hi arc is regular by canonical form.
		if c0 := f0 & 1; m.nodes[f0>>1].v == v {
			f00, f01 = m.nodes[f0>>1].lo^c0, m.nodes[f0>>1].hi^c0
		} else {
			f00, f01 = f0, f0
		}
		if m.nodes[f1>>1].v == v {
			f10, f11 = m.nodes[f1>>1].lo, m.nodes[f1>>1].hi
		} else {
			f10, f11 = f1, f1
		}
		// mk may grow the arena, so take no pointers across it. n1 is
		// always regular: f11 is either a stored hi arc or f1 itself,
		// both regular, so mk(u, f01, f11) either collapses to the
		// regular f11 or builds a node whose hi child is regular —
		// exactly what the relabelled n needs for its own hi arc.
		n0 := m.mk(u, f00, f10)
		n1 := m.mk(u, f01, f11)
		// Relabel n in place as a v-node. A collision with an
		// existing v-node is impossible for reduced diagrams; the
		// probe that proves it also finds the slot n moves into.
		tv := &m.unique[v]
		old, slot := tv.find(m.nodes, n0, n1)
		if old != 0 {
			panic(fmt.Sprintf("bdd: swap collision at level %d (node %d vs %d)", x, old, n))
		}
		m.nodes[n>>1].v = v
		m.nodes[n>>1].lo = n0
		m.nodes[n>>1].hi = n1
		tv.insertAt(m.nodes, &m.slots, n0, n1, slot, n)
		// Cost bookkeeping, per polarity: the cost counters track
		// classical (node, polarity) pairs, so each cost-reachable
		// polarity of n moves its own count from u to v and re-points
		// its edges from (f0, f1) to (n0, n1), complement-adjusted.
		// Add before delete so shared structure never transits through
		// a spurious death cascade.
		if st.on {
			for p := Node(0); p <= 1; p++ {
				if h := n | p; int(h) < len(st.ref) && st.ref[h] > 0 {
					st.keys[u]--
					st.keys[v]++
					m.costRefAdd(n0 ^ p)
					m.costRefAdd(n1 ^ p)
					m.costRefDel(f0 ^ p)
					m.costRefDel(f1 ^ p)
				}
			}
		}
	}
	m.swapScratch = affected[:0]
	m.perm[u], m.perm[v] = x+1, x
	m.invperm[x], m.invperm[x+1] = v, u
	m.bumpCacheGen()
	if siftCostChecks {
		m.verifySiftCost("swap")
	}
	return st.size - sizeBefore
}

// Group binds the given variables into one reordering block. The
// variables must currently occupy contiguous levels; sifting then
// moves the block as a unit, preserving the internal order. Grouping
// is how multi-valued variables keep their encoding bits adjacent.
func (m *Manager) Group(vars ...Var) error {
	if len(vars) == 0 {
		return nil
	}
	levels := make([]int, len(vars))
	for i, v := range vars {
		levels[i] = m.perm[v]
	}
	sort.Ints(levels)
	for i := 1; i < len(levels); i++ {
		if levels[i] != levels[i-1]+1 {
			return fmt.Errorf("bdd: Group requires contiguous levels, got %v", levels)
		}
	}
	gid := m.group[vars[0]]
	for _, v := range vars {
		m.group[v] = gid
	}
	return nil
}

// GroupOf returns the reordering-group id of v. Variables start in
// singleton groups named by their own Var value.
func (m *Manager) GroupOf(v Var) int32 { return m.group[v] }

// block is a maximal run of levels whose variables share a group id.
type block struct {
	gid   int32
	start int // first level
	size  int // number of levels
}

// blocks returns the current reordering blocks, top to bottom. The
// slice is the manager's scratch: valid until the next blocks call.
func (m *Manager) blocks() []block {
	out := m.blockBuf[:0]
	n := len(m.invperm)
	for lvl := 0; lvl < n; {
		g := m.group[m.invperm[lvl]]
		sz := 1
		for lvl+sz < n && m.group[m.invperm[lvl+sz]] == g {
			sz++
		}
		out = append(out, block{gid: g, start: lvl, size: sz})
		lvl += sz
	}
	m.blockBuf = out
	return out
}

// moveVarUp moves the variable at the given level up by one level and
// returns the sift-cost delta.
func (m *Manager) moveVarUp(level int) int { return m.swapLevels(level - 1) }

// swapBlockDown exchanges blocks[i] with blocks[i+1] by bubbling each
// variable of the lower block up through the upper block. The slice is
// updated to reflect the new layout. It returns the summed sift-cost
// delta of the underlying adjacent swaps.
func (m *Manager) swapBlockDown(bs []block, i int) int {
	up, down := bs[i], bs[i+1]
	delta := 0
	for k := 0; k < down.size; k++ {
		// The k-th variable of the lower block sits at level
		// down.start+k and must rise up.size levels; the variables
		// of the lower block already moved sit above it.
		for lvl := down.start + k; lvl > up.start+k; lvl-- {
			delta += m.moveVarUp(lvl)
		}
	}
	bs[i] = block{gid: down.gid, start: up.start, size: down.size}
	bs[i+1] = block{gid: up.gid, start: up.start + down.size, size: up.size}
	return delta
}

// siftMaxGrowth aborts a block's movement in one direction once the
// diagram grows beyond this factor of its size at the start of the
// block's sift. It is fixed: every recorded sift order (the sift and
// differential goldens, the benchmark's swap counts) was produced with
// it, and no caller needs another bound.
const siftMaxGrowth = 2

// SiftOptions controls dynamic reordering.
type SiftOptions struct {
	// Precede, if non-nil, is a partial order on group ids: when
	// Precede(a, b) is true, every variable of group a must stay
	// above (before) every variable of group b. If the initial
	// order violates the relation, Sift first bubbles blocks into a
	// satisfying order. This implements the paper's constraint that
	// an output variable may not sift above the inputs in its
	// support.
	Precede func(a, b int32) bool
	// Passes is the number of sifting passes (default 1; the paper
	// uses single-pass dynamic reordering).
	Passes int
	// Roots, if non-nil, is the set of functions whose shared size
	// sifting minimises. All protected roots stay alive and valid
	// either way; Roots additionally survive the collections Sift
	// runs (they are marked as extra GC roots), so they need not be
	// protected themselves. POLIS uses this to optimise the
	// characteristic function alone.
	Roots []Node
}

// Sift performs Rudell-style sifting of the reordering blocks: each
// block in turn (largest node contribution first) is moved through all
// positions permitted by the precedence constraint and fixed at the
// position minimising the number of live nodes. Unreferenced nodes are
// garbage collected first so that dead nodes do not bias the costs.
func (m *Manager) Sift(opts SiftOptions) {
	m.checkOwner()
	passes := opts.Passes
	if passes <= 0 {
		passes = 1
	}
	m.gc(opts.Roots)
	// The interaction matrix must cover every function whose nodes
	// are live — protected roots as well as cost roots — or the
	// fast-path relabel could corrupt a protected-only diagram. It is
	// order-invariant, so one build serves precedence enforcement and
	// every pass.
	m.sift.roots = m.resolveCostRoots(opts)
	allRoots := m.sift.roots
	if opts.Roots != nil {
		allRoots = make([]Node, 0, len(m.roots)+len(opts.Roots))
		for r := range m.roots {
			allRoots = append(allRoots, r)
		}
		allRoots = append(allRoots, opts.Roots...)
	}
	m.buildInteract(allRoots)
	defer func() {
		m.clearInteract()
		m.sift.on = false
		m.sift.roots = nil
	}()
	if opts.Precede != nil {
		m.enforcePrecedence(opts.Precede)
	}
	for p := 0; p < passes; p++ {
		m.siftPass(opts)
	}
	m.sift.on = false
	m.gc(opts.Roots)
}

// enforcePrecedence bubbles blocks into an order satisfying the given
// partial order. Since the relation is acyclic, repeated adjacent
// exchanges terminate.
func (m *Manager) enforcePrecedence(precede func(a, b int32) bool) {
	bs := m.blocks()
	for changed := true; changed; {
		changed = false
		for i := 0; i+1 < len(bs); i++ {
			if precede(bs[i+1].gid, bs[i].gid) {
				m.swapBlockDown(bs, i)
				changed = true
			}
		}
	}
}

func (m *Manager) siftPass(opts SiftOptions) {
	m.SiftPasses++
	// Pass-start collection: drop the orphans earlier swaps left in
	// the tables (precedence enforcement runs untracked, and a pass
	// with frees off keeps its orphans), so table population equals
	// reachable size and the slot scans in swapLevels stay
	// proportional to live nodes. With frees on (see siftcost.go) the
	// swaps of this pass then keep it that way by freeing each node
	// the moment it dies.
	m.gc(m.sift.roots)
	m.rebuildSiftCost()
	m.sift.on = true

	// Order blocks by descending cost contribution, read off the
	// per-variable counters the rebuild just produced (the previous
	// implementation re-traversed the DAG through a map[Node]bool —
	// the last allocating traversal on the sift path).
	contrib := make([]int, len(m.perm))
	for v, k := range m.sift.keys {
		if k > 0 {
			contrib[m.group[v]] += int(k)
		}
	}
	order := make([]int32, 0, len(contrib))
	for g, c := range contrib {
		if c > 0 {
			order = append(order, int32(g))
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if contrib[order[i]] != contrib[order[j]] {
			return contrib[order[i]] > contrib[order[j]]
		}
		return order[i] < order[j]
	})
	for _, gid := range order {
		m.siftBlock(gid, opts)
		// Automatic collection: with frees off, adjacent swaps leave
		// re-expressed nodes in the tables as orphans, and dead nodes
		// both waste memory and slow the swap scans. Collect when the
		// dead ratio is high — the arena has doubled since the last
		// GC — marking the cost roots as extra roots so unprotected
		// cost functions survive. With frees on the arena holds only
		// live nodes and this rarely fires. The collection recycles
		// arena slots, so the cost counters are rebuilt.
		if live := m.NumNodes(); live > m.autoGCMin && live > 2*m.liveAfterGC {
			m.gc(m.sift.roots)
			m.rebuildSiftCost()
		}
	}
}

// siftBlock moves the block with the given group id through its
// permitted window and leaves it at the best position found. The cost
// after each adjacent swap is the incrementally maintained
// Size(roots...) — an O(1) read of m.sift.size via the deltas the
// swaps return — and Somenzi-style lower bounds abandon a direction
// as soon as no remaining position in it can beat the best size seen.
func (m *Manager) siftBlock(gid int32, opts SiftOptions) {
	bs := m.blocks()
	pos := -1
	for i, b := range bs {
		if b.gid == gid {
			pos = i
			break
		}
	}
	if pos < 0 {
		return // block's variables label no live nodes and never existed? defensive
	}
	lo, hi := 0, len(bs)-1
	if opts.Precede != nil {
		for j := 0; j < pos; j++ {
			if opts.Precede(bs[j].gid, gid) {
				if j+1 > lo {
					lo = j + 1
				}
			}
		}
		for j := pos + 1; j < len(bs); j++ {
			if opts.Precede(gid, bs[j].gid) {
				if j-1 < hi {
					hi = j - 1
				}
			}
		}
	}
	size := m.sift.size
	startSize := size
	limit := startSize * siftMaxGrowth
	bestSize := startSize
	bestPos := pos
	cur := pos

	// blockInteracts reports whether any variable of a interacts with
	// any variable of b; a false answer means exchanging the two
	// blocks is pure relabelling and changes no level's node count.
	blockInteracts := func(a, b block) bool {
		for i := a.start; i < a.start+a.size; i++ {
			for j := b.start; j < b.start+b.size; j++ {
				if m.varsInteract(m.invperm[i], m.invperm[j]) {
					return true
				}
			}
		}
		return false
	}
	// blockKeys sums the cost keys of the block's variables.
	blockKeys := func(b block) int {
		s := 0
		for l := b.start; l < b.start+b.size; l++ {
			s += int(m.sift.keys[m.invperm[l]])
		}
		return s
	}

	down := func(stop int) {
		for cur < stop {
			// Lower bound: moving the block past a level can shrink
			// the diagram by at most that level's current keys (its
			// nodes may all orphan; the created nodes only add), and
			// the keys of levels not yet passed cannot change until
			// the block reaches them. If even a total collapse of
			// every interacting block still below cannot beat the
			// best size, no position further down can win — stop.
			if m.sift.on {
				maxShrink := 0
				for j := cur + 1; j <= stop; j++ {
					if blockInteracts(bs[cur], bs[j]) {
						maxShrink += blockKeys(bs[j])
					}
				}
				if size-maxShrink >= bestSize {
					m.LBPrunes++
					return
				}
			}
			size += m.swapBlockDown(bs, cur)
			cur++
			m.CostEvals++
			if size < bestSize {
				bestSize, bestPos = size, cur
			}
			if size > limit {
				return
			}
		}
	}
	up := func(stop int) {
		for cur > stop {
			// Moving up, a swap's shrink is bounded by the moving
			// block's own current keys (nodes absorbed from passed
			// levels relabel one-for-one and survive), so the bound
			// additionally charges the block itself: everything
			// below it and every non-interacting level above are
			// fixed; the rest could at best vanish.
			if m.sift.on {
				maxShrink := blockKeys(bs[cur])
				for j := stop; j < cur; j++ {
					if blockInteracts(bs[cur], bs[j]) {
						maxShrink += blockKeys(bs[j])
					}
				}
				if size-maxShrink >= bestSize {
					m.LBPrunes++
					return
				}
			}
			size += m.swapBlockDown(bs, cur-1)
			cur--
			m.CostEvals++
			if size < bestSize {
				bestSize, bestPos = size, cur
			}
			if size > limit {
				return
			}
		}
	}
	// Visit the nearer boundary first (Rudell's heuristic).
	if pos-lo < hi-pos {
		up(lo)
		down(hi)
	} else {
		down(hi)
		up(lo)
	}
	// Return to the best position seen.
	for cur < bestPos {
		m.swapBlockDown(bs, cur)
		cur++
	}
	for cur > bestPos {
		m.swapBlockDown(bs, cur-1)
		cur--
	}
}

// Order returns the current variable order, top to bottom.
func (m *Manager) Order() []Var {
	out := make([]Var, len(m.invperm))
	copy(out, m.invperm)
	return out
}
