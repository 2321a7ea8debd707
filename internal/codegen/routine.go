package codegen

import "polis/internal/sgraph"

// Routine is the layout of an s-graph's reaction routine that C
// emission, assembly and estimation all read, so they agree on it by
// construction: one statement per reachable vertex, in Order; one
// unconditional jump after a statement whose fall-through successor is
// not the next one (Jump); and the entry copies of one copy plan under
// the resolved options. Build it with NewRoutine after the last pass
// that changes the graph: a reduce, collapse or specialize afterwards
// leaves the routine stale, and nothing detects it. Its fields are
// read-only.
type Routine struct {
	G    *sgraph.SGraph
	Opts Options // with defaults applied
	// Order is Reachable's DFS preorder, BEGIN first.
	Order []*sgraph.Vertex
	Plan  *CopyPlan
	pos   []int32 // position in Order by vertex ID
}

// NewRoutine lays out g under opts. A zero IfThreshold means 2.
func NewRoutine(g *sgraph.SGraph, opts Options) *Routine {
	if opts.IfThreshold == 0 {
		opts.IfThreshold = 2
	}
	order := g.Reachable()
	// The copy analysis needs parents before children, which a DFS
	// preorder does not give on a shared DAG.
	topo := g.TopoSort(order, make([]*sgraph.Vertex, 0, len(order)))
	r := &Routine{G: g, Opts: opts, Order: order, Plan: analyzeCopies(g, topo), pos: make([]int32, g.IDBound())}
	for i, v := range order {
		r.pos[v.ID] = int32(i)
	}
	return r
}

// FallsThrough reports whether w's statement directly follows v's, so
// the edge from v to w needs no jump.
func (r *Routine) FallsThrough(v, w *sgraph.Vertex) bool {
	i := int(r.pos[v.ID]) + 1
	return i < len(r.Order) && r.Order[i] == w
}

// Jump returns the target of the unconditional jump that ends v's
// statement, nil if there is none. Control leaves BEGIN and ASSIGN
// through Next and a TEST through its fall-through arm (FallIdx; the
// other arms branch); that successor needs a jump unless it falls
// through. END returns nil.
func (r *Routine) Jump(v *sgraph.Vertex) *sgraph.Vertex {
	if v.Kind == sgraph.End {
		return nil
	}
	if w := v.Succ(v.FallIdx()); !r.FallsThrough(v, w) {
		return w
	}
	return nil
}
