package estimate

import (
	"strconv"
	"strings"

	"polis/internal/codegen"
	"polis/internal/sgraph"
)

// expectedCycles computes the profile-weighted mean transition time:
// every outcome vector observed by the scenario profile is replayed
// through the s-graph and its exact path cost — vertex bodies, edge
// arms under the current hot orders, gotos where the layout displaces
// a fall-through child — accumulated with the vector's observed
// frequency. Vectors that do not cover every test on their path (the
// profile came from a different synthesis of the module) are dropped
// from the weighting rather than guessed at. The routine is the one the
// size/bound DP walks, so the goto placement agrees between the
// figures.
func expectedCycles(r *codegen.Routine, p *Params, prof *sgraph.SpecializeProfile, entryCyc int64) int64 {
	g := r.G
	col := make(map[string]int, len(prof.TestNames))
	for i, n := range prof.TestNames {
		col[n] = i
	}
	// Outcome per graph test for the vector being replayed; -1 when
	// the profile does not cover the test.
	outcome := make([]int, len(g.C.Tests))
	colOf := make([]int, len(g.C.Tests))
	for i, t := range g.C.Tests {
		if c, ok := col[t.Name()]; ok {
			colOf[i] = c
		} else {
			colOf[i] = -1
		}
	}

	var weighted, total int64
	for key, count := range prof.Outcomes {
		if count <= 0 {
			continue
		}
		parts := strings.Split(key, ",")
		if len(parts) != len(prof.TestNames) {
			continue
		}
		ok := true
		for i := range outcome {
			outcome[i] = -1
		}
		for i, c := range colOf {
			if c < 0 {
				continue
			}
			v, err := strconv.Atoi(parts[c])
			if err != nil || v < 0 || v >= g.C.Tests[i].Arity() {
				ok = false
				break
			}
			outcome[i] = v
		}
		if !ok {
			continue
		}
		cycles, covered := pathCycles(r, p, outcome)
		if !covered {
			continue
		}
		weighted += (entryCyc + cycles) * count
		total += count
	}
	if total == 0 {
		return 0
	}
	return weighted / total
}

// pathCycles walks one outcome vector (indexed by test ID) from BEGIN
// to END and sums the same cost terms the bound DP charges along that
// path. covered is false when the walk hits a test the vector does not
// determine.
func pathCycles(r *codegen.Routine, p *Params, outcome []int) (int64, bool) {
	var cycles int64
	v := r.G.Begin
	for steps := 0; steps <= len(r.G.Vertices); steps++ {
		vc, _ := vertexCost(p, r, v)
		cycles += vc
		if v.Kind == sgraph.End {
			return cycles, true
		}
		k := 0 // BEGIN and ASSIGN have no tests
		for _, t := range v.Tests {
			o := outcome[r.G.C.TestID(t)]
			if o < 0 {
				return 0, false
			}
			k = k*t.Arity() + o
		}
		cycles += edgeCost(p, r, v, k)
		v = v.Succ(k)
	}
	return 0, false
}
