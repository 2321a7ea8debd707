// Package bdd implements reduced ordered binary decision diagrams
// (ROBDDs) with complement edges, in the style of Brace, Rudell and
// Bryant's ITE package and of CUDD, with the operations the POLIS
// software-synthesis flow needs: ITE, specialized AND/OR/XOR applies,
// cofactoring, existential quantification (smoothing), support
// computation, and dynamic variable reordering by sifting (Rudell)
// with precedence constraints and variable groups.
//
// # Complement edges
//
// A Node handle packs an arena index and a complement bit:
// handle = index<<1 | c. The handle denotes the function stored at the
// index, complemented when c is set. One physical terminal (arena
// index 0) denotes the constant false, so False is handle 0 and True
// is its complement, handle 1 — the zero-value Node still denotes the
// constant false, exactly as before the rewrite. (CUDD names its one
// terminal "one" and reaches false through a complemented edge; the
// two conventions are isomorphic, and keeping the zero terminal keeps
// Go's zero value meaningful.)
//
// Canonical form: the hi (then) arc stored in a node is always
// regular (complement bit clear); only lo (else) arcs and external
// handles may be complemented. mk enforces the form by complementing
// both children and returning a complemented handle whenever the hi
// child arrives complemented — ¬f and f share every physical node, so
// Not is a one-bit flip on the handle that allocates nothing, and
// functions paired with their complements (characteristic functions
// are full of such pairs) cost up to half the nodes they used to.
// The diagrams remain strongly canonical: two handles are equal if
// and only if the functions they denote are equal (under the current
// variable order). In-place adjacent-level swaps preserve the
// function denoted by every handle, so handles stay valid across
// reordering.
//
// Size deliberately still counts classical nodes — one per distinct
// reachable subfunction, i.e. per reachable (physical node, polarity)
// pair — so sizes, sift costs, and therefore final sift orders are
// byte-identical to the pre-complement kernel and to the recorded
// golden orders. SharedSize counts physical arena nodes, which is
// where the up-to-2× complement-edge saving shows.
//
// # Storage layer
//
// The kernel follows mature BDD packages (CUDD): per-variable unique
// tables are flat open-addressing hash tables storing regular node
// handles, with deletion by backward shift so no tombstone ever
// lengthens a probe chain (see uniqueTable), and all operations share
// one fixed-size, direct-mapped, lossy operation cache whose entries
// carry a generation stamp (see cacheEntry). Before a cache lookup, ITE
// normalises its operands to a standard triple (first argument and
// then-branch regular, complement carried out of the call) and the
// commuting applies sort theirs, so all equivalent calls share one
// cache entry. Reordering swaps and garbage collection invalidate the
// cache by bumping the generation counter — no reallocation, no
// traffic for Go's GC — which matters because sifting performs
// thousands of adjacent swaps per pass. The Hits and Misses
// statistics therefore count a lossy cache: a collision evicts
// silently and a later miss may recompute a previously cached result.
//
// Garbage collection marks from the protected roots with an iterative
// stack (no recursion-depth limit), sweeps the arena, and rebuilds the
// unique tables right-sized. Outside sifting it is the only way nodes
// are reclaimed. Inside a sift pass, when every protected root is one
// of the roots being sifted for, the swaps reclaim nodes themselves:
// the pass's reference counts (see siftcost.go) show the moment a node
// dies, and it leaves its unique table and returns its arena slot to
// the free list at once, so the tables hold only live nodes for the
// whole pass. Otherwise swap orphans stay in the tables, and sifting
// collects automatically when they double the live arena (see
// siftPass).
//
// # Manager lifecycle
//
// New draws on a package-level sync.Pool of released managers, and
// Release returns one to it: the next New reuses its arena, table slot
// arrays, op cache and scratch, resetting them so the manager behaves
// exactly like a fresh one (same handles, same table and cache growth,
// every statistic zero). Only an owner whose handles all die with the
// manager may release it. In this module that is the pipeline, which
// releases each module's reactive-function manager once the s-graph is
// built and the BDD statistics are read, and the s-graph reducer,
// which releases its care-set space on return. Every other manager is
// simply dropped and collected by Go's GC. Releasing twice panics;
// under the bdddebug tag a released manager is never reused and every
// checked entry point panics on it.
//
// # Concurrency
//
// A Manager is NOT safe for concurrent use, and deliberately so: the
// unique tables, operation cache, traversal scratch buffers and
// in-place sifting all mutate shared arena state, and guarding them
// with locks would put a mutex on the hottest path of the whole
// synthesis flow. A Manager is owned by a single goroutine — by
// convention the one that created it — and every operation must be
// invoked from that goroutine. Concurrent synthesis (see
// internal/pipeline) gives each worker its own Manager instead of
// sharing one. Build with `-tags bdddebug` to enforce the invariant at
// run time: every mutating entry point (including Protect/Unprotect
// and the mk-reaching helper VarNode) then panics when called from a
// goroutine other than the owner (see owner_debug.go).
package bdd

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
)

// Node is a handle to a BDD function within a Manager: an arena index
// shifted left once, with the complement bit in bit 0. Handles with
// the low bit clear are called regular.
type Node int32

// Var identifies a BDD variable. Variables are created in sequence by
// NewVar; their position in the order is a separate notion (a level)
// that reordering may change.
type Var int32

// Terminal handles: the one physical terminal (arena index 0) denotes
// the constant false, and True is its complemented handle.
const (
	False Node = 0
	True  Node = 1
)

// IsConst reports whether n denotes one of the two constant functions
// (both are handles onto the single physical terminal).
func (n Node) IsConst() bool { return n == False || n == True }

type node struct {
	v    Var  // variable label; -1 for the terminal
	lo   Node // else arc; may carry a complement bit
	hi   Node // then arc; always regular (canonical form)
	mark bool // GC mark bit
	dead bool // on the free list
}

// Manager owns a collection of BDD nodes sharing one variable order.
type Manager struct {
	nodes  []node
	unique []uniqueTable // per-variable unique tables, indexed by Var
	free   []Node        // recycled arena slots (regular handles)

	perm    []int // Var -> level
	invperm []Var // level -> Var
	names   []string

	group []int32 // Var -> group id (contiguous block of levels)

	cache      []cacheEntry // lossy direct-mapped operation cache
	cacheGen   uint32       // current generation; stale entries miss
	cacheShift uint8        // 64 - log2(len(cache))

	roots map[Node]int // protected external references

	// Reused traversal scratch, so Size/GC/sifting allocate nothing
	// in steady state.
	markStack   []Node   // explicit DFS stack for mark and Size
	visited     []uint32 // per-handle visit stamps for read-only walks
	visitGen    uint32
	swapScratch []Node  // swapLevels' affected-node list
	varCount    []int32 // per-variable live counts during GC
	blockBuf    []block // blocks' result, reused by every caller
	slots       slotPool

	// sift holds the incremental reordering-cost state: per-variable
	// reachable-node counters maintained by swapLevels itself, the
	// variable interaction matrix, and the cost roots resolved for
	// the current Sift call (see siftcost.go).
	sift siftState

	liveAfterGC int // live nodes after the most recent collection
	autoGCMin   int // arena size below which sifting skips auto-GC

	owner    int64 // owning goroutine id; only set under the bdddebug tag
	released bool  // Release has run; the manager awaits reuse

	// Stats
	GCs    int
	Swaps  int
	Hits   int // operation-cache hits (lossy cache; see package doc)
	Misses int // operation-cache misses
	// CacheResets counts operation-cache reallocations (growth or
	// generation wraparound). Reordering and GC invalidate by bumping
	// the generation instead, so a full sift pass performs zero
	// resets.
	CacheResets int
	// Evictions counts live cache entries overwritten by a colliding
	// store (the cost of the lossy direct-mapped design).
	Evictions int
	// PeakNodes is the high-water mark of live arena (physical) nodes,
	// the paper's "peak BDD size" figure of merit for an ordering.
	// With complement edges a physical node serves both polarities, so
	// this is the memory figure, not the classical node count Size
	// reports.
	PeakNodes int
	// SiftPasses counts completed sifting passes.
	SiftPasses int
	// SwapsSkipped counts adjacent swaps resolved by the
	// interaction-matrix fast path: the two variables share no
	// support, so the exchange is a pure order relabel with no table
	// scan, no node mutation and no cache invalidation. Such swaps
	// are not included in Swaps.
	SwapsSkipped int
	// LBPrunes counts sift directions abandoned by lower-bound
	// pruning: even if every interacting level the block had yet to
	// pass collapsed entirely, the size could not beat the best
	// position already found.
	LBPrunes int
	// CostEvals counts sift cost evaluations. Each is an O(1) read
	// of the incrementally maintained counters; before the
	// incremental scheme every evaluation was a full Size(roots...)
	// traversal of the shared DAG.
	CostEvals int
}

// managers holds released Managers for New to reuse.
var managers sync.Pool

// New creates an empty manager with no variables. It may hand back the
// storage of a manager an earlier caller released (see Release); a
// reused manager behaves exactly like a fresh one.
func New() *Manager {
	m, _ := managers.Get().(*Manager)
	if m == nil {
		m = new(Manager)
	}
	m.reset()
	return m
}

// Release hands the manager's storage back for reuse by a later New.
// Every handle into it, and the manager itself, must be dead by then:
// the caller may not touch either afterwards. Releasing is optional —
// an unreleased manager is collected by Go's GC as usual — and pays
// off for short-lived managers built one after another, as the
// pipeline builds one per module. Releasing twice panics. Under the
// bdddebug build tag released managers are never reused, and any
// later call of an entry point panics.
func (m *Manager) Release() {
	if m.released {
		panic("bdd: Manager released twice")
	}
	m.released = true
	if !ownerChecks {
		managers.Put(m)
	}
}

// reset empties the manager into the state New promises: no
// variables, only the terminal in the arena, every statistic zero and
// the op cache back at cacheMinSize. It keeps the backing arrays of
// the arena, the tables (through the slot pool), the op cache and the
// traversal scratch. The cache and visit generations keep counting,
// so no stamp left in a reused array can match a new one.
func (m *Manager) reset() {
	for v := range m.unique {
		m.slots.put(m.unique[v].slots)
	}
	clear(m.names)
	clear(m.roots)
	if m.roots == nil {
		m.roots = make(map[Node]int)
	}
	cache := m.cache[:0]
	if cap(cache) < cacheMinSize {
		cache = make([]cacheEntry, cacheMinSize)
	}
	st := &m.sift
	*m = Manager{
		// The single terminal occupies arena slot 0.
		nodes:       append(m.nodes[:0], node{v: -1}),
		unique:      m.unique[:0],
		free:        m.free[:0],
		perm:        m.perm[:0],
		invperm:     m.invperm[:0],
		names:       m.names[:0],
		group:       m.group[:0],
		cache:       cache[:cacheMinSize],
		cacheShift:  uint8(64 - bits.Len(uint(cacheMinSize-1))),
		cacheGen:    m.cacheGen,
		roots:       m.roots,
		markStack:   m.markStack[:0],
		visited:     m.visited,
		visitGen:    m.visitGen,
		swapScratch: m.swapScratch[:0],
		varCount:    m.varCount[:0],
		blockBuf:    m.blockBuf[:0],
		slots:       m.slots,
		sift: siftState{
			ref:      st.ref[:0],
			keys:     st.keys[:0],
			interact: st.interact[:0],
			stack:    st.stack[:0],
		},
		liveAfterGC: 1,
		autoGCMin:   4096,
	}
	m.bumpCacheGen()
	m.CacheResets = 0 // a generation wraparound is no reset of the new life
	if ownerChecks {
		m.owner = goid()
	}
}

// checkOwner panics when the calling goroutine is not the Manager's
// owner, or when the manager has been released. It compiles to nothing
// unless the bdddebug build tag is set.
func (m *Manager) checkOwner() {
	if ownerChecks {
		if m.released {
			panic("bdd: Manager used after Release")
		}
		if g := goid(); g != m.owner {
			panic(fmt.Sprintf("bdd: Manager owned by goroutine %d used from goroutine %d; a Manager is single-goroutine (see package doc)", m.owner, g))
		}
	}
}

// NumVars returns the number of variables created so far.
func (m *Manager) NumVars() int { return len(m.perm) }

// NumNodes returns the number of live physical nodes in the arena,
// including the terminal. A function and its complement share nodes,
// so this tracks memory, not classical BDD size (see Size).
func (m *Manager) NumNodes() int { return len(m.nodes) - len(m.free) }

// NewVar creates a fresh variable placed at the bottom of the current
// order. The name is only used for diagnostics.
func (m *Manager) NewVar(name string) Var {
	m.checkOwner()
	v := Var(len(m.perm))
	m.perm = append(m.perm, len(m.perm))
	m.invperm = append(m.invperm, v)
	m.unique = append(m.unique, uniqueTable{})
	m.names = append(m.names, name)
	m.group = append(m.group, int32(v)) // singleton group
	return v
}

// VarName returns the diagnostic name given to v at creation.
func (m *Manager) VarName(v Var) string { return m.names[v] }

// Level returns the current position of v in the variable order
// (0 is the top).
func (m *Manager) Level(v Var) int { return m.perm[v] }

// levelOf returns the order level of the labelling variable of n, or a
// value larger than any level for terminals. The complement bit does
// not affect the level.
func (m *Manager) levelOf(n Node) int {
	v := m.nodes[n>>1].v
	if v < 0 {
		return int(^uint(0) >> 1) // max int
	}
	return m.perm[v]
}

// VarOf returns the labelling variable of a non-terminal node.
func (m *Manager) VarOf(n Node) Var {
	if n.IsConst() {
		panic("bdd: VarOf on terminal")
	}
	return m.nodes[n>>1].v
}

// LowHigh returns the two cofactor children of a non-terminal handle,
// with the handle's complement bit pushed into both (a complemented
// function has complemented cofactors), so the returned handles
// denote the cofactors of the function n denotes.
func (m *Manager) LowHigh(n Node) (lo, hi Node) {
	if n.IsConst() {
		panic("bdd: LowHigh on terminal")
	}
	c := n & 1
	nd := &m.nodes[n>>1]
	return nd.lo ^ c, nd.hi ^ c
}

// mk returns the canonical handle for (v, lo, hi), creating the node
// if necessary. The children must be labelled by variables strictly
// below v in the current order. Canonical form is enforced here: when
// the hi child is complemented, both children are complemented and
// the returned handle carries the complement instead, so stored hi
// arcs are always regular and each function/complement pair owns one
// physical node.
func (m *Manager) mk(v Var, lo, hi Node) Node {
	if lo == hi {
		return lo
	}
	c := hi & 1
	lo ^= c
	hi ^= c
	t := &m.unique[v]
	n, slot := t.find(m.nodes, lo, hi)
	if n != 0 {
		return n ^ c
	}
	if len(m.free) > 0 {
		n = m.free[len(m.free)-1]
		m.free = m.free[:len(m.free)-1]
		m.nodes[n>>1] = node{v: v, lo: lo, hi: hi}
	} else {
		n = Node(len(m.nodes)) << 1
		m.nodes = append(m.nodes, node{v: v, lo: lo, hi: hi})
	}
	if live := len(m.nodes) - len(m.free); live > m.PeakNodes {
		m.PeakNodes = live
	}
	t.insertAt(m.nodes, &m.slots, lo, hi, slot, n)
	return n ^ c
}

// VarNode returns the function that is true exactly when v is true.
func (m *Manager) VarNode(v Var) Node {
	m.checkOwner()
	return m.mk(v, False, True)
}

// Protect registers n as an external root so garbage collection and
// reordering keep it (and everything it reaches) alive. Calls nest.
func (m *Manager) Protect(n Node) Node {
	m.checkOwner()
	m.roots[n]++
	return n
}

// Unprotect removes one protection registration added by Protect.
func (m *Manager) Unprotect(n Node) {
	m.checkOwner()
	if c := m.roots[n]; c > 1 {
		m.roots[n] = c - 1
	} else {
		delete(m.roots, n)
	}
}

// GC reclaims nodes not reachable from protected roots. The operation
// cache is invalidated (by generation bump, not reallocation) and the
// unique tables are rebuilt right-sized. Handles of collected nodes
// become invalid.
func (m *Manager) GC() {
	m.checkOwner()
	m.gc(nil)
}

// gc is the collection core; extra lists additional roots to keep
// alive (sifting passes its cost roots, which need not be protected).
func (m *Manager) gc(extra []Node) {
	m.GCs++
	for r := range m.roots {
		m.mark(r)
	}
	for _, r := range extra {
		m.mark(r)
	}
	m.bumpCacheGen()
	m.free = m.free[:0]
	// Per-variable live counts size the rebuilt tables.
	if cap(m.varCount) < len(m.unique) {
		m.varCount = make([]int32, len(m.unique))
	}
	cnt := m.varCount[:len(m.unique)]
	for i := range cnt {
		cnt[i] = 0
	}
	for i := 1; i < len(m.nodes); i++ {
		nd := &m.nodes[i]
		if !nd.dead && nd.mark {
			cnt[nd.v]++
		}
	}
	for v := range m.unique {
		m.unique[v].reset(&m.slots, int(cnt[v]))
	}
	live := 1
	for i := 1; i < len(m.nodes); i++ {
		nd := &m.nodes[i]
		if nd.dead {
			m.free = append(m.free, Node(i)<<1)
			continue
		}
		if nd.mark {
			nd.mark = false
			m.unique[nd.v].insert(m.nodes, &m.slots, nd.lo, nd.hi, Node(i)<<1)
			live++
			continue
		}
		nd.dead = true
		m.free = append(m.free, Node(i)<<1)
	}
	m.liveAfterGC = live
}

// mark sets the GC mark bit on every physical node reachable from r
// (reachability ignores complement bits), using an explicit stack of
// arena indices (reused across calls) so arbitrarily deep diagrams
// cannot overflow the goroutine stack.
func (m *Manager) mark(r Node) {
	i := r >> 1
	if i == 0 || m.nodes[i].mark {
		return
	}
	m.nodes[i].mark = true
	stack := append(m.markStack[:0], i)
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &m.nodes[n]
		if lo := nd.lo >> 1; lo != 0 && !m.nodes[lo].mark {
			m.nodes[lo].mark = true
			stack = append(stack, lo)
		}
		if hi := nd.hi >> 1; hi != 0 && !m.nodes[hi].mark {
			m.nodes[hi].mark = true
			stack = append(stack, hi)
		}
	}
	m.markStack = stack[:0]
}

// visitEpoch starts a read-only traversal epoch: it returns a stamp
// distinct from every stamp in m.visited, growing the stamp array to
// cover both polarities of every arena slot (walks stamp by handle, so
// a node's two polarities are tracked independently where the walk
// needs it). Stamped traversals replace per-call map[Node]bool scratch
// in the hot Size path (called once per candidate position during
// sifting).
func (m *Manager) visitEpoch() uint32 {
	if need := 2 * len(m.nodes); len(m.visited) < need {
		grown := make([]uint32, need+need/2)
		copy(grown, m.visited)
		m.visited = grown
	}
	m.visitGen++
	if m.visitGen == 0 { // uint32 wraparound: restamp from scratch
		for i := range m.visited {
			m.visited[i] = 0
		}
		m.visitGen = 1
	}
	return m.visitGen
}

// Size returns the number of classical (complement-free) ROBDD nodes
// of the functions rooted at the given handles: one per distinct
// reachable subfunction, i.e. per reachable (physical node, polarity)
// pair, shared subfunctions counted once. This is deliberately the
// same count the pre-complement kernel reported, so sift costs and
// recorded golden sizes are unchanged by the representation. See
// SharedSize for the physical arena footprint.
func (m *Manager) Size(roots ...Node) int {
	gen := m.visitEpoch()
	stack := m.markStack[:0]
	count := 0
	for _, r := range roots {
		if r.IsConst() || m.visited[r] == gen {
			continue
		}
		m.visited[r] = gen
		stack = append(stack, r)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			count++
			c := n & 1
			nd := &m.nodes[n>>1]
			if lo := nd.lo ^ c; !lo.IsConst() && m.visited[lo] != gen {
				m.visited[lo] = gen
				stack = append(stack, lo)
			}
			if hi := nd.hi ^ c; !hi.IsConst() && m.visited[hi] != gen {
				m.visited[hi] = gen
				stack = append(stack, hi)
			}
		}
	}
	m.markStack = stack[:0]
	return count
}

// SharedSize returns the number of physical non-terminal arena nodes
// reachable from the given roots: a function and its complement share
// every node, so this is the memory footprint. It is at most Size and
// smaller — down to half — exactly when complement-edge sharing pays.
func (m *Manager) SharedSize(roots ...Node) int {
	gen := m.visitEpoch()
	stack := m.markStack[:0]
	count := 0
	for _, r := range roots {
		r &^= 1
		if r == 0 || m.visited[r] == gen {
			continue
		}
		m.visited[r] = gen
		stack = append(stack, r)
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			count++
			nd := &m.nodes[n>>1]
			if lo := nd.lo &^ 1; lo != 0 && m.visited[lo] != gen {
				m.visited[lo] = gen
				stack = append(stack, lo)
			}
			if hi := nd.hi; hi != 0 && m.visited[hi] != gen {
				m.visited[hi] = gen
				stack = append(stack, hi)
			}
		}
	}
	m.markStack = stack[:0]
	return count
}

// Eval evaluates the function denoted by n under the given assignment.
func (m *Manager) Eval(n Node, assign func(Var) bool) bool {
	for !n.IsConst() {
		c := n & 1
		nd := &m.nodes[n>>1]
		if assign(nd.v) {
			n = nd.hi ^ c
		} else {
			n = nd.lo ^ c
		}
	}
	return n == True
}

// Support returns the variables the function denoted by n essentially
// depends on, in increasing Var order. Complements do not change
// support, so the walk visits physical nodes.
func (m *Manager) Support(n Node) []Var {
	gen := m.visitEpoch()
	stack := m.markStack[:0]
	inSup := make([]bool, len(m.perm))
	if n &^= 1; n != 0 {
		m.visited[n] = gen
		stack = append(stack, n)
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		nd := &m.nodes[x>>1]
		inSup[nd.v] = true
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
	var out []Var
	for v, in := range inSup {
		if in {
			out = append(out, Var(v))
		}
	}
	return out
}

// String renders a small diagram as nested ITE expressions, for
// debugging and tests. Complement bits are resolved during the walk,
// so the rendering of a function is independent of how it is shared.
func (m *Manager) String(n Node) string {
	var b strings.Builder
	var rec func(n Node)
	rec = func(n Node) {
		switch n {
		case False:
			b.WriteString("0")
		case True:
			b.WriteString("1")
		default:
			c := n & 1
			nd := &m.nodes[n>>1]
			fmt.Fprintf(&b, "ite(%s,", m.names[nd.v])
			rec(nd.hi ^ c)
			b.WriteString(",")
			rec(nd.lo ^ c)
			b.WriteString(")")
		}
	}
	rec(n)
	return b.String()
}

// CheckInvariants verifies structural invariants of the manager:
// complement-edge canonical form (the single terminal lives at arena
// index 0 and every stored hi arc is regular), reducedness (no node
// with lo==hi), ordering (children strictly below parents),
// unique-table consistency (every live node reachable along its probe
// chain, every table entry a live, correctly labelled regular handle,
// no duplicates, load factor within the growth bound), and order
// permutation consistency. It is used by tests and returns a
// descriptive error on the first violation found.
func (m *Manager) CheckInvariants() error {
	if len(m.nodes) == 0 || m.nodes[0].v >= 0 {
		return fmt.Errorf("arena slot 0 is not the terminal")
	}
	for i := 1; i < len(m.nodes); i++ {
		nd := &m.nodes[i]
		if nd.dead {
			continue
		}
		if nd.v < 0 {
			return fmt.Errorf("node %d: live non-terminal slot labelled as terminal", i)
		}
		if nd.hi&1 != 0 {
			return fmt.Errorf("node %d: complemented hi arc %d (canonical form keeps then arcs regular)", i, nd.hi)
		}
		if nd.lo == nd.hi {
			return fmt.Errorf("node %d: lo == hi (%d)", i, nd.lo)
		}
		if m.levelOf(nd.lo) <= m.perm[nd.v] || m.levelOf(nd.hi) <= m.perm[nd.v] {
			return fmt.Errorf("node %d (var %s level %d): child above or at own level", i, m.names[nd.v], m.perm[nd.v])
		}
		// Probe-chain reachability: the node must be found by lookup
		// from its hash slot.
		if got := m.unique[nd.v].lookup(m.nodes, nd.lo, nd.hi); got != Node(i)<<1 {
			return fmt.Errorf("node %d: unique table lookup missing or wrong (%d)", i, got)
		}
	}
	for v := range m.unique {
		t := &m.unique[v]
		live := 0
		for _, s := range t.slots {
			if s == emptySlot {
				continue
			}
			if s < 0 || int(s>>1) >= len(m.nodes) {
				return fmt.Errorf("unique[%d] holds %d, which is no arena handle (a tombstone?)", v, s)
			}
			if s&1 != 0 {
				return fmt.Errorf("unique[%d] holds complemented handle %d", v, s)
			}
			live++
			nd := &m.nodes[s>>1]
			if nd.dead {
				return fmt.Errorf("unique[%d] holds dead node %d", v, s>>1)
			}
			if nd.v != Var(v) {
				return fmt.Errorf("unique[%d] holds node %d labelled %d", v, s>>1, nd.v)
			}
			if got := t.lookup(m.nodes, nd.lo, nd.hi); got != s {
				return fmt.Errorf("unique[%d]: node %d shadowed or unreachable (lookup found %d)", v, s>>1, got)
			}
		}
		if live != int(t.count) {
			return fmt.Errorf("unique[%d]: count %d but %d live slots", v, t.count, live)
		}
		if int(t.count)*4 > len(t.slots)*3 {
			return fmt.Errorf("unique[%d]: load factor above 3/4 (%d live in %d slots)",
				v, t.count, len(t.slots))
		}
	}
	// Order permutation consistency.
	for v, lvl := range m.perm {
		if m.invperm[lvl] != Var(v) {
			return fmt.Errorf("perm/invperm inconsistent at var %d", v)
		}
	}
	return nil
}

// Dot renders the diagrams rooted at the given nodes in Graphviz
// format for inspection and debugging. Physical nodes appear once;
// the single terminal is the "0" box. Else arcs are dashed, then arcs
// solid, and a complemented arc — including a complemented root
// handle — carries the customary dot-shaped tail (arrowtail=odot) of
// negated-edge renderings. Then arcs never carry one: the canonical
// form keeps them regular.
func (m *Manager) Dot(roots ...Node) string {
	var b strings.Builder
	b.WriteString("digraph bdd {\n  rankdir=TB;\n")
	b.WriteString("  n0 [label=\"0\", shape=box];\n")
	seen := map[Node]bool{0: true}
	var walk func(n Node)
	walk = func(n Node) {
		n &^= 1
		if seen[n] {
			return
		}
		seen[n] = true
		nd := &m.nodes[n>>1]
		fmt.Fprintf(&b, "  n%d [label=%q];\n", n>>1, m.names[nd.v])
		if nd.lo&1 != 0 {
			fmt.Fprintf(&b, "  n%d -> n%d [style=dashed, dir=both, arrowtail=odot];\n", n>>1, nd.lo>>1)
		} else {
			fmt.Fprintf(&b, "  n%d -> n%d [style=dashed];\n", n>>1, nd.lo>>1)
		}
		fmt.Fprintf(&b, "  n%d -> n%d;\n", n>>1, nd.hi>>1)
		walk(nd.lo)
		walk(nd.hi)
	}
	for i, r := range roots {
		fmt.Fprintf(&b, "  root%d [label=\"f%d\", shape=plaintext];\n", i, i)
		if r&1 != 0 {
			fmt.Fprintf(&b, "  root%d -> n%d [dir=both, arrowtail=odot];\n", i, r>>1)
		} else {
			fmt.Fprintf(&b, "  root%d -> n%d;\n", i, r>>1)
		}
		walk(r)
	}
	b.WriteString("}\n")
	return b.String()
}

// sortVarsByLevelDesc is a small insertion sort used by cube builders;
// cubes are short, so this beats sort.Slice's indirection.
func (m *Manager) sortVarsByLevelDesc(vs []Var) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && m.perm[vs[j]] > m.perm[vs[j-1]]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}
