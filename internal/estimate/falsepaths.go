package estimate

import (
	"polis/internal/cfsm"
	"polis/internal/sgraph"
)

// maxWithFalsePaths recomputes the worst-case path length while
// pruning statically infeasible paths: a path asserting two mutually
// exclusive tests both true can never execute ("false paths ... can be
// determined with a good degree of accuracy from the structure of the
// CFSM network, e.g. by computing event incompatibility relations",
// Section III-C). The search enumerates paths with memoisation on the
// (vertex, asserted-exclusive-tests) pair; the exclusive-test sets of
// practical CFSMs are small.
func maxWithFalsePaths(g *sgraph.SGraph, p *Params, opts Options, lay layout, entryCyc int64) (int64, bool) {
	if len(g.C.Exclusive) == 0 {
		return 0, false
	}
	// Tests participating in any exclusivity group.
	exIdx := make(map[*cfsm.Test]int)
	for _, grp := range g.C.Exclusive {
		for _, t := range grp {
			if _, ok := exIdx[t]; !ok {
				exIdx[t] = len(exIdx)
			}
		}
	}
	if len(exIdx) > 30 {
		return 0, false // give up; fall back to the plain bound
	}
	groupMasks := make([]uint32, 0, len(g.C.Exclusive))
	for _, grp := range g.C.Exclusive {
		var m uint32
		for _, t := range grp {
			m |= 1 << exIdx[t]
		}
		groupMasks = append(groupMasks, m)
	}
	conflicts := func(asserted uint32) bool {
		for _, m := range groupMasks {
			hit := asserted & m
			if hit != 0 && hit&(hit-1) != 0 {
				return true // two tests of one exclusive group true
			}
		}
		return false
	}

	type key struct {
		v        *sgraph.Vertex
		asserted uint32
	}
	memo := make(map[key]int64)
	const dead = int64(-1)

	var walk func(v *sgraph.Vertex, asserted uint32) int64
	walk = func(v *sgraph.Vertex, asserted uint32) int64 {
		k := key{v, asserted}
		if r, ok := memo[k]; ok {
			return r
		}
		vc, _ := vertexCost(p, opts, v)
		var r int64
		switch v.Kind {
		case sgraph.End:
			r = vc
		case sgraph.Test:
			r = dead
			for kk, w := range v.Children {
				a2 := asserted
				if len(v.Tests) == 1 {
					if bit, ok := exIdx[v.Tests[0]]; ok && v.Tests[0].Arity() == 2 && kk == 1 {
						a2 |= 1 << bit
						if conflicts(a2) {
							continue // infeasible branch
						}
					}
				}
				e := edgeCost(p, opts, v, kk)
				if !lay.fallsThrough(v, w) && kk == v.FallIdx() {
					e += p.GotoCyc
				}
				sub := walk(w, a2)
				if sub == dead {
					continue
				}
				if c := vc + e + sub; r == dead || c > r {
					r = c
				}
			}
		default:
			e := int64(0)
			if !lay.fallsThrough(v, v.Next) {
				e = p.GotoCyc
			}
			sub := walk(v.Next, asserted)
			if sub == dead {
				r = dead
			} else {
				r = vc + e + sub
			}
		}
		memo[k] = r
		return r
	}
	r := walk(g.Begin, 0)
	if r == dead {
		return 0, false
	}
	return entryCyc + r, true
}
