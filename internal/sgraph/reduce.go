package sgraph

import (
	"fmt"
	"strconv"

	"polis/internal/bdd"
	"polis/internal/cfsm"
	"polis/internal/mvar"
)

// This file implements the fixed-point s-graph reduction engine: the
// graph-level optimisation layer between procedure build and code
// generation. Three passes run to a fixed point:
//
//  1. ASSIGN-chain straightening drops assignments that are
//     overwritten before any read along every path to END. Under
//     copy-on-entry semantics (Section III-B1) expression operands
//     read the pre-reaction snapshot, never the working state, so the
//     only reader of a state-variable write is the post-reaction
//     commit: an ASSIGN to x is dead iff every path from its
//     successor contains another ASSIGN to x. This is
//     the write-before-read analysis of codegen's copy plan lifted from
//     copy suppression to vertex removal.
//
//  2. Don't-care TEST elimination propagates a reachability-context
//     BDD per vertex — the disjunction over all BEGIN-to-v paths of
//     the conjunction of test outcomes along each path, conjoined
//     with the care set implied by cfsm.MarkExclusive declarations
//     (the same declarations estimate's false-path pruning trusts).
//     A TEST outcome whose edge constraint does not intersect the
//     context can never be taken: the edge is redirected to a feasible
//     sibling (making children uniform, which feeds sharing), and a
//     TEST with a single feasible outcome is bypassed entirely.
//
//  3. DAG sharing hash-conses reachable vertices bottom-up on
//     (kind, structural test/action identity, child identity), merging
//     isomorphic subgraphs into true DAG fanout. Graphs straight out
//     of FromChi are already maximally shared (construction memoises
//     on canonical BDD nodes), so this pass exists to re-canonicalise
//     after the other passes and after rewrites such as CollapseTests
//     or hand construction.
//
// Every pass preserves the observable reaction (emission sequence,
// last writer per state variable, the fired flag) on the care set;
// CheckEquivalent is the exhaustive differential gate and the netfuzz
// harness cross-checks reduced object code against the reference
// interpreter on every simulated reaction.

// ReduceOptions is the reduction engine's configuration. It has no
// fields: every pass always runs, within the fixed limits below.
type ReduceOptions struct{}

const (
	// maxReduceIter caps the fixed-point iterations.
	maxReduceIter = 8
	// maxContextNodes aborts the don't-care pass (leaving the graph
	// untouched) if the context BDD manager grows past this many
	// nodes.
	maxContextNodes = 1 << 18
)

// ReduceStats reports what Reduce did.
type ReduceStats struct {
	VerticesBefore, VerticesAfter int
	TestsBefore, TestsAfter       int
	AssignsBefore, AssignsAfter   int

	Shares          int // vertices merged by hash-consing
	TestsEliminated int // TEST vertices bypassed
	EdgesRedirected int // infeasible TEST edges redirected
	AssignsDropped  int // dead ASSIGN vertices removed
	Iterations      int
}

// Changed reports whether any pass rewrote the graph.
func (s ReduceStats) Changed() bool {
	return s.Shares+s.TestsEliminated+s.EdgesRedirected+s.AssignsDropped > 0
}

func (s ReduceStats) String() string {
	return fmt.Sprintf("vertices %d -> %d (%d TEST -> %d, %d ASSIGN -> %d): %d share(s), %d test(s) eliminated, %d edge(s) redirected, %d assign(s) dropped, %d iteration(s)",
		s.VerticesBefore, s.VerticesAfter, s.TestsBefore, s.TestsAfter,
		s.AssignsBefore, s.AssignsAfter,
		s.Shares, s.TestsEliminated, s.EdgesRedirected, s.AssignsDropped,
		s.Iterations)
}

// Reduce runs the reduction passes to a fixed point and compacts
// g.Vertices to the reachable set. The graph must be well-formed; it
// stays well-formed.
func (g *SGraph) Reduce(ReduceOptions) ReduceStats {
	before := g.ComputeStats()
	st := ReduceStats{
		VerticesBefore: before.Vertices,
		TestsBefore:    before.Tests,
		AssignsBefore:  before.Assigns,
	}
	for st.Iterations < maxReduceIter {
		st.Iterations++
		changed := g.straightenAssigns(&st)
		changed += g.eliminateDontCares(maxContextNodes, &st)
		changed += g.shareSubgraphs(&st)
		if changed == 0 {
			break
		}
	}
	g.Vertices = g.Reachable()
	after := g.ComputeStats()
	st.VerticesAfter = after.Vertices
	st.TestsAfter = after.Tests
	st.AssignsAfter = after.Assigns
	return st
}

// TopoOrder returns the reachable vertices with every parent strictly
// before each of its children — a true topological order even for
// shared DAGs, which the DFS preorder of Reachable is not (a shared
// child may precede one of its parents there). Kahn's algorithm
// seeded from BEGIN with a FIFO ready queue makes the order
// deterministic: ties break on first discovery.
func (g *SGraph) TopoOrder() []*Vertex {
	reach := g.Reachable()
	return g.TopoSort(reach, reach[:0])
}

// TopoSort appends TopoOrder's order to order, given reach, the graph's
// Reachable order; order may share reach's storage.
func (g *SGraph) TopoSort(reach, order []*Vertex) []*Vertex {
	indeg := make([]int32, g.idBound)
	for _, v := range reach {
		switch v.Kind {
		case Test:
			for _, c := range v.Children {
				indeg[c.ID]++
			}
		case Begin, Assign:
			indeg[v.Next.ID]++
		}
	}
	// The order doubles as the FIFO queue: order[head:] is ready.
	order = append(order, g.Begin)
	ready := func(c *Vertex) {
		if indeg[c.ID]--; indeg[c.ID] == 0 {
			order = append(order, c)
		}
	}
	for head := 0; head < len(order); head++ {
		switch v := order[head]; v.Kind {
		case Test:
			for _, c := range v.Children {
				ready(c)
			}
		case Begin, Assign:
			ready(v.Next)
		}
	}
	return order
}

// forwarding redirects vertices removed by a pass to their
// replacements, indexed by vertex ID; nil entries are not forwarded.
type forwarding []*Vertex

// set forwards v to r, allocating the table on first use.
func (f *forwarding) set(g *SGraph, v, r *Vertex) {
	if *f == nil {
		*f = make(forwarding, g.idBound)
	}
	(*f)[v.ID] = r
}

// resolve follows a forwarding chain to its representative, with path
// compression.
func (f forwarding) resolve(v *Vertex) *Vertex {
	r := f[v.ID]
	if r == nil {
		return v
	}
	r = f.resolve(r)
	f[v.ID] = r
	return r
}

// applyForward rewrites the edges of order, the pass's pre-rewrite
// reachable set, through the forwarding table. Forward targets are
// always vertices of the pre-rewrite graph, so that set covers every
// edge that can survive, and path-compressed resolution does not
// depend on the visit order.
func applyForward(order []*Vertex, f forwarding) {
	if f == nil {
		return
	}
	for _, v := range order {
		switch v.Kind {
		case Test:
			for i, c := range v.Children {
				v.Children[i] = f.resolve(c)
			}
		case Begin, Assign:
			v.Next = f.resolve(v.Next)
		}
	}
}

// ---------------------------------------------------------------- 1

// straightenAssigns removes ASSIGN vertices whose state-variable
// write is overwritten on every path to END before the post-reaction
// commit can read it. The kill set of a vertex — variables assigned
// on every path from it to END — is a reverse-topological bitmask DP:
// intersection over TEST children, union with the written variable
// through an ASSIGN. The fired flag is preserved because on each such
// path the overwriting ASSIGN still executes; emissions are untouched.
func (g *SGraph) straightenAssigns(st *ReduceStats) int {
	if len(g.C.States) == 0 || len(g.C.States) > 64 {
		return 0 // bitmask DP; wider state spaces do not occur
	}
	bit := make(map[*cfsm.StateVar]uint64, len(g.C.States))
	for i, sv := range g.C.States {
		bit[sv] = 1 << i
	}
	order := g.TopoOrder()
	kill := make([]uint64, g.idBound)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		switch v.Kind {
		case End:
			kill[v.ID] = 0
		case Test:
			k := ^uint64(0)
			for _, c := range v.Children {
				k &= kill[c.ID]
			}
			kill[v.ID] = k
		case Begin:
			kill[v.ID] = kill[v.Next.ID]
		case Assign:
			k := kill[v.Next.ID]
			if v.Action.Kind == cfsm.ActAssign {
				k |= bit[v.Action.Var]
			}
			kill[v.ID] = k
		}
	}
	var forward forwarding
	dropped := 0
	for _, v := range order {
		if v.Kind == Assign && v.Action.Kind == cfsm.ActAssign &&
			kill[v.Next.ID]&bit[v.Action.Var] != 0 {
			forward.set(g, v, v.Next)
			dropped++
		}
	}
	applyForward(order, forward)
	st.AssignsDropped += dropped
	return dropped
}

// ---------------------------------------------------------------- 2

// eliminateDontCares computes a reachability context per vertex in a
// fresh multi-valued space (one variable per primitive test) and
// rewrites TEST vertices whose context rules outcomes out. The
// context of v is the exact condition on the test-outcome space under
// which evaluation reaches v, intersected with the declared care set,
// so an outcome whose edge cube does not intersect it can never be
// taken at run time. Contexts are computed once on the pre-rewrite
// graph; that stays exact through the single rewrite sweep because a
// redirected edge only removes paths whose constraint conjunction was
// already False, and a bypassed TEST contributes the outcome its
// context implied. Second-order opportunities are caught by the next
// fixed-point iteration. The pass gives up, rewriting nothing, once
// the context manager holds more than maxNodes nodes.
func (g *SGraph) eliminateDontCares(maxNodes int, st *ReduceStats) int {
	tests := g.C.Tests
	if len(tests) == 0 {
		return 0
	}
	sp := mvar.NewSpace()
	m := sp.M
	defer m.Release()
	mvOf := make(map[*cfsm.Test]*mvar.MV, len(tests))
	for _, t := range tests {
		mvOf[t] = sp.NewMV(t.Name(), t.Arity(), mvar.Input)
	}
	order := g.TopoOrder()
	for _, v := range order {
		if v.Kind != Test {
			continue
		}
		for _, t := range v.Tests {
			if mvOf[t] == nil {
				return 0 // foreign test; nothing sound to conclude
			}
		}
	}

	// Care set: at most one test of each declared exclusivity group
	// is true in any snapshot (cfsm.MarkExclusive's contract, trusted
	// exactly as estimate's false-path pruning trusts it), and
	// selector values stay inside their domain (Snapshot.EvalTest
	// rejects out-of-domain state values).
	care := bdd.True
	for _, grp := range g.C.Exclusive {
		for i := 0; i < len(grp); i++ {
			for j := i + 1; j < len(grp); j++ {
				if mvOf[grp[i]] == nil || mvOf[grp[j]] == nil {
					continue
				}
				both := m.And(sp.Eq(mvOf[grp[i]], 1), sp.Eq(mvOf[grp[j]], 1))
				care = m.And(care, m.Not(both))
			}
		}
	}
	for _, t := range tests {
		if v := mvOf[t]; v.Size != 1<<uint(v.NumBits()) {
			care = m.And(care, sp.ValidEncoding(v))
		}
	}

	// Forward context propagation in topological order: every
	// in-edge of a vertex is seen before the vertex itself.
	ctx := make([]bdd.Node, g.idBound)
	for _, v := range order {
		ctx[v.ID] = bdd.False
	}
	ctx[g.Begin.ID] = care
	for _, v := range order {
		c := ctx[v.ID]
		switch v.Kind {
		case Test:
			for idx, child := range v.Children {
				cc := m.And(c, outcomeCube(sp, mvOf, v.Tests, idx))
				ctx[child.ID] = m.Or(ctx[child.ID], cc)
			}
		case Begin, Assign:
			ctx[v.Next.ID] = m.Or(ctx[v.Next.ID], c)
		}
		if m.NumNodes() > maxNodes {
			return 0 // context blow-up: skip the pass this iteration
		}
	}

	var forward forwarding
	changed := 0
	var feasible []int
	for _, v := range order {
		if v.Kind != Test || ctx[v.ID] == bdd.False {
			continue // unreachable under the care set; dropped later
		}
		arity := len(v.Children)
		feasible = feasible[:0]
		for idx := 0; idx < arity; idx++ {
			if m.Intersects(ctx[v.ID], outcomeCube(sp, mvOf, v.Tests, idx)) {
				feasible = append(feasible, idx)
			}
		}
		if len(feasible) == 1 {
			forward.set(g, v, v.Children[feasible[0]])
			st.TestsEliminated++
			changed++
			continue
		}
		if len(feasible) < arity && len(feasible) > 0 {
			rep := v.Children[feasible[0]]
			fi := 0
			for idx := 0; idx < arity; idx++ {
				if fi < len(feasible) && feasible[fi] == idx {
					fi++
					continue
				}
				if v.Children[idx] != rep {
					v.Children[idx] = rep
					st.EdgesRedirected++
					changed++
				}
			}
		}
		// A TEST whose children all coincide decides nothing; bypass
		// it unless it decodes a selector (FromChi keeps degenerate
		// selector TESTs so the object code still reads the state
		// value — respect that choice here).
		if uniformNonSelector(v) {
			forward.set(g, v, v.Children[0])
			st.TestsEliminated++
			changed++
		}
	}
	applyForward(order, forward)
	return changed
}

// uniformNonSelector reports whether v's children are all identical
// and no constituent test is a selector.
func uniformNonSelector(v *Vertex) bool {
	for _, t := range v.Tests {
		if t.Kind == cfsm.TestSelector {
			return false
		}
	}
	for _, c := range v.Children[1:] {
		if c != v.Children[0] {
			return false
		}
	}
	return true
}

// outcomeCube returns the constraint cube of one combined outcome of
// a (possibly multi-test) TEST vertex, decoding the index in the same
// mixed-radix order Evaluate composes it (first test most
// significant).
func outcomeCube(sp *mvar.Space, mvOf map[*cfsm.Test]*mvar.MV, tests []*cfsm.Test, idx int) bdd.Node {
	cube := bdd.True
	for i := len(tests) - 1; i >= 0; i-- {
		a := tests[i].Arity()
		cube = sp.M.And(cube, sp.Eq(mvOf[tests[i]], idx%a))
		idx /= a
	}
	return cube
}

// ---------------------------------------------------------------- 3

// shareSubgraphs hash-conses the reachable vertices bottom-up: two
// vertices with the same kind, the same structural tests/action and
// identical (already-canonicalised) children merge into one. Children
// are processed before parents (reverse topological order), so each
// vertex's children are canonical when its own key is formed and
// forwarding chains never exceed one hop.
func (g *SGraph) shareSubgraphs(st *ReduceStats) int {
	order := g.TopoOrder()
	id := make([]int32, g.idBound)
	for i, v := range order {
		id[v.ID] = int32(i)
	}
	rep := make([]*Vertex, g.idBound)
	canon := make(map[string]*Vertex, len(order))
	var key []byte
	merged := 0
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		switch v.Kind {
		case Test:
			for j, c := range v.Children {
				if r := rep[c.ID]; r != nil {
					v.Children[j] = r
				}
			}
		case Begin, Assign:
			if r := rep[v.Next.ID]; r != nil {
				v.Next = r
			}
		}
		if v.Kind == Begin {
			continue
		}
		key = appendVertexKey(key[:0], v, id)
		if w, ok := canon[string(key)]; ok {
			if w != v {
				rep[v.ID] = w
				merged++
			}
		} else {
			canon[string(key)] = v
		}
	}
	st.Shares += merged
	return merged
}

// appendVertexKey appends the hash-consing identity of a vertex to b:
// its tests' and action's structural keys (cfsm's AppendKey, so equal
// tests allocated apart, as in hand-built graphs, share) and the
// topological index of each (canonicalised) child.
func appendVertexKey(b []byte, v *Vertex, id []int32) []byte {
	switch v.Kind {
	case End:
		b = append(b, 'E')
	case Assign:
		b = v.Action.AppendKey(append(b, "A|"...))
		b = append(b, '|')
		b = strconv.AppendInt(b, int64(id[v.Next.ID]), 10)
	case Test:
		b = append(b, 'T')
		for _, t := range v.Tests {
			b = t.AppendKey(append(b, '|'))
		}
		for _, c := range v.Children {
			b = append(b, '|')
			b = strconv.AppendInt(b, int64(id[c.ID]), 10)
		}
	}
	return b
}
