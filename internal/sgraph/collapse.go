package sgraph

import "polis/internal/cfsm"

// CollapseTests implements the TEST-node collapsing optimisation of
// Section III-B3d: a closed subgraph of TEST vertices — one in which
// every vertex except the root is reached only from within the
// subgraph — can be replaced by a single multi-test TEST vertex whose
// outcome index concatenates the outcomes of the constituent tests,
// thereby factoring the common test expression. The paper experimented
// with this transformation and never observed an improvement in the
// final code; the implementation is kept so that the ablation
// benchmark can reproduce that negative result.
//
// This implementation collapses the canonical closed shape: a TEST
// vertex whose children are all TEST vertices over one common test
// (compared structurally, so equal tests allocated separately still
// match), with no edges entering the children from outside. It applies
// the rewrite repeatedly to a fixed point, subject to a limit on the
// combined arity, and returns the number of collapses performed.
//
// Parent counts are maintained incrementally across rewrites: a
// collapse moves the grandchildren's in-edges from the absorbed
// children to the root without changing any surviving vertex's
// in-degree, and the absorbed children (whose only parent was the
// root, by the closure condition) leave the graph. No other vertex's
// collapsibility changes, so one scan with per-vertex re-examination
// reaches the same fixed point as restarting from scratch — without
// the full Parents() recomputation per rewrite that made the original
// loop quadratic.
func (g *SGraph) CollapseTests(maxArity int) int {
	if maxArity <= 0 {
		maxArity = 16
	}
	edgesFrom := func(v, c *Vertex) int32 {
		var n int32
		for _, ch := range v.Children {
			if ch == c {
				n++
			}
		}
		return n
	}
	collapsed := 0
	parents := g.Parents()
	absorbed := make([]bool, g.idBound)
	for _, v := range g.Reachable() {
		if v.Kind != Test || absorbed[v.ID] {
			continue
		}
		// Re-examine v until it no longer collapses: absorbing a layer
		// of children can expose another common-test layer beneath.
		for {
			var common *cfsm.Test
			ok := true
			for _, c := range v.Children {
				if c.Kind != Test || len(c.Tests) != 1 || c == v {
					ok = false
					break
				}
				if common == nil {
					common = c.Tests[0]
				} else if !c.Tests[0].Same(common) {
					ok = false
					break
				}
				if parents[c.ID] != edgesFrom(v, c) {
					ok = false // reached from outside the subgraph
					break
				}
			}
			if !ok || common == nil {
				break
			}
			// v must not itself test the common test already.
			for _, t := range v.Tests {
				if t.Same(common) {
					ok = false
					break
				}
			}
			if !ok || v.Arity()*common.Arity() > maxArity {
				break
			}
			newChildren := make([]*Vertex, 0, v.Arity()*common.Arity())
			for _, c := range v.Children {
				newChildren = append(newChildren, c.Children...)
			}
			for _, c := range v.Children {
				absorbed[c.ID] = true
				parents[c.ID] = 0
			}
			v.Tests = append(v.Tests, common)
			v.Children = newChildren
			collapsed++
		}
	}
	if collapsed > 0 {
		g.Vertices = g.Reachable() // drop absorbed vertices
	}
	return collapsed
}
