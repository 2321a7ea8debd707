package estimate

import (
	"polis/internal/codegen"
	"polis/internal/sgraph"
)

// expectedCycles computes the profile-weighted mean transition time:
// every outcome vector of the scenario profile (vecs) is replayed
// through the s-graph and its exact path cost — vertex bodies, edge
// arms under the current hot orders, gotos where the layout displaces
// a fall-through child — accumulated with the vector's observed
// frequency. Vectors that do not cover every test on their path (the
// profile came from a different synthesis of the module) are dropped
// from the weighting rather than guessed at, and so are malformed
// keys. The routine is the one the size/bound DP walks, so the goto
// placement agrees between the figures.
func expectedCycles(r *codegen.Routine, p *Params, vecs []sgraph.ProfileVector, entryCyc int64) int64 {
	var weighted, total int64
	for _, pv := range vecs {
		var cycles int64
		covered, _ := r.G.Replay(pv.Outcome, func(v *sgraph.Vertex, k int) {
			vc, _ := vertexCost(p, r, v)
			cycles += vc
			if k >= 0 {
				cycles += edgeCost(p, r, v, k)
			}
		})
		if !covered {
			continue
		}
		weighted += (entryCyc + cycles) * pv.Count
		total += pv.Count
	}
	if total == 0 {
		return 0
	}
	return weighted / total
}
