package estimate

import (
	"polis/internal/cfsm"
	"polis/internal/codegen"
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
func maxWithFalsePaths(r *codegen.Routine, p *Params, entryCyc int64) (int64, bool) {
	g := r.G
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
		if res, ok := memo[k]; ok {
			return res
		}
		vc, _ := vertexCost(p, r, v)
		res := dead
		if v.Kind == sgraph.End {
			res = vc
		}
		for kk, n := 0, v.Arity(); v.Kind != sgraph.End && kk < n; kk++ {
			a2 := asserted
			if len(v.Tests) == 1 {
				if bit, ok := exIdx[v.Tests[0]]; ok && v.Tests[0].Arity() == 2 && kk == 1 {
					a2 |= 1 << bit
					if conflicts(a2) {
						continue // infeasible branch
					}
				}
			}
			sub := walk(v.Succ(kk), a2)
			if sub == dead {
				continue
			}
			if c := vc + edgeCost(p, r, v, kk) + sub; res == dead || c > res {
				res = c
			}
		}
		memo[k] = res
		return res
	}
	worst := walk(g.Begin, 0)
	if worst == dead {
		return 0, false
	}
	return entryCyc + worst, true
}
