package sgraph

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"polis/internal/cfsm"
)

// SpecializeProfile is the execution-frequency evidence the
// profile-guided specialization pass consumes: how often each full
// test-outcome vector was observed for this module across a campaign.
// It deliberately lives in sgraph (rather than importing the collector
// package) so the pass has no dependency on how profiles are gathered;
// internal/profile converts its per-module aggregates into this shape.
type SpecializeProfile struct {
	// TestNames gives the column order of the outcome vectors, using
	// cfsm.Test.Name() strings (unique per CFSM). Tests the collector
	// saw that the graph no longer contains — or vice versa — are
	// simply ignored, so profiles survive re-synthesis drift.
	TestNames []string
	// Outcomes maps an observed outcome vector, encoded as the
	// comma-joined decimal outcomes in TestNames order (OutcomeKey),
	// to the number of reactions that exhibited it.
	Outcomes map[string]int64
}

// OutcomeKey encodes one outcome vector in the canonical form used by
// SpecializeProfile.Outcomes.
func OutcomeKey(outcome []int) string {
	parts := make([]string, len(outcome))
	for i, k := range outcome {
		parts[i] = strconv.Itoa(k)
	}
	return strings.Join(parts, ",")
}

// ProfileVector is one outcome vector of a SpecializeProfile projected
// onto a CFSM's tests: Outcome is indexed by cfsm.TestID and holds -1
// where the profile does not cover the test.
type ProfileVector struct {
	Outcome []int
	Count   int64
}

// Vectors decodes p's outcome vectors onto tests (a CFSM's Tests), in
// sorted key order so that anything accumulated from them cannot depend
// on map order. Keys with a non-positive count are skipped. A key of
// the wrong arity, or with a covered entry that is not an outcome of
// its test, is left out and err names the first such key; every
// well-formed vector is still returned, and vecs is never nil. covers
// reports whether p has a column for any of tests.
func (p *SpecializeProfile) Vectors(tests []*cfsm.Test) (vecs []ProfileVector, covers bool, err error) {
	col := make(map[string]int, len(p.TestNames))
	for i, n := range p.TestNames {
		col[n] = i
	}
	colOf := make([]int, len(tests))
	for i, t := range tests {
		c, ok := col[t.Name()]
		if !ok {
			c = -1
		}
		colOf[i] = c
		covers = covers || ok
	}
	keys := make([]string, 0, len(p.Outcomes))
	for k, n := range p.Outcomes {
		if n > 0 {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	vecs = make([]ProfileVector, 0, len(keys))
	for _, key := range keys {
		parts := strings.Split(key, ",")
		if len(parts) != len(p.TestNames) {
			if err == nil {
				err = fmt.Errorf("sgraph: specialize: outcome key %q has %d entries, profile declares %d tests",
					key, len(parts), len(p.TestNames))
			}
			continue
		}
		out := make([]int, len(tests))
		for i, c := range colOf {
			out[i] = -1
			if c < 0 {
				continue
			}
			v, aerr := strconv.Atoi(parts[c])
			if aerr != nil || v < 0 || v >= tests[i].Arity() {
				out = nil
				break
			}
			out[i] = v
		}
		if out == nil {
			if err == nil {
				err = fmt.Errorf("sgraph: specialize: malformed outcome key %q", key)
			}
			continue
		}
		vecs = append(vecs, ProfileVector{Outcome: out, Count: p.Outcomes[key]})
	}
	return vecs, covers, err
}

// Replay walks the outcome vector outcome (indexed by cfsm.TestID, -1
// for a test it does not determine) from BEGIN, calling visit with each
// vertex and the index of the edge taken from it: 0 from BEGIN and
// ASSIGN, -1 at END, which ends the walk. It returns false, after
// visiting the vertices before it, when the walk reaches a TEST whose
// outcome the vector does not determine, and an error when the walk
// does not terminate.
func (g *SGraph) Replay(outcome []int, visit func(v *Vertex, k int)) (bool, error) {
	v := g.Begin
	for steps := 0; v.Kind != End; steps++ {
		if steps > len(g.Vertices) {
			return false, fmt.Errorf("sgraph: replay: evaluation does not terminate")
		}
		k := 0
		for _, t := range v.Tests {
			o := outcome[g.C.TestID(t)]
			if o < 0 {
				return false, nil
			}
			k = k*t.Arity() + o
		}
		visit(v, k)
		v = v.Succ(k)
	}
	visit(v, -1)
	return true, nil
}

// SpecializeStats summarises what a Specialize pass did.
type SpecializeStats struct {
	Samples   int64 // profiled reactions whose outcome vectors were applied
	Tests     int   // TEST vertices that received profile weight
	Reordered int   // TEST vertices given a non-identity hot order
}

func (s SpecializeStats) String() string {
	return fmt.Sprintf("specialize: reordered %d/%d weighted TEST vertices from %d samples",
		s.Reordered, s.Tests, s.Samples)
}

// Specialize reorders the outcome edges of TEST vertices hottest-first
// according to an execution profile: each observed outcome vector is
// replayed through the graph (so edge weights reflect the correlated
// path frequencies actually seen, not per-test marginals), and every
// weighted vertex gets a Hot permutation placing its most frequent
// combined outcome on the fall-through arc with colder outcomes tested
// behind it. The pass touches layout metadata only — Children keeps
// its semantic indexing and evaluation never consults Hot — so the
// observable reaction function is unchanged by construction;
// SpecializeChecked additionally discharges that claim through
// CheckEquivalent. Identity orders are normalised to nil so an
// unspecialized graph and a graph specialized under a uniform profile
// generate byte-identical code. A profile with no column for any of
// the machine's tests leaves the graph as it is. Specialize also
// returns p's vectors (Vectors over g.C.Tests), so a later consumer,
// the estimator's profile-weighted cycles, need not decode p again.
func (g *SGraph) Specialize(p *SpecializeProfile) (SpecializeStats, []ProfileVector, error) {
	var st SpecializeStats
	vecs, covers, err := p.Vectors(g.C.Tests)
	if !covers {
		return st, vecs, nil
	}
	if err != nil {
		return st, vecs, err
	}
	weight := make(map[*Vertex][]int64)
	for _, pv := range vecs {
		st.Samples += pv.Count
		// Credit each TEST vertex's taken outcome. A test the profile
		// does not cover ends the replay: the remainder of the path is
		// undetermined.
		if _, err := g.Replay(pv.Outcome, func(v *Vertex, k int) {
			if v.Kind != Test {
				return
			}
			w := weight[v]
			if w == nil {
				w = make([]int64, v.Arity())
				weight[v] = w
			}
			w[k] += pv.Count
		}); err != nil {
			return st, vecs, err
		}
	}
	for v, w := range weight {
		st.Tests++
		order := make([]int, len(w))
		for i := range order {
			order[i] = i
		}
		sort.SliceStable(order, func(a, b int) bool {
			return w[order[a]] > w[order[b]]
		})
		identity := true
		for i, k := range order {
			if i != k {
				identity = false
				break
			}
		}
		if identity {
			v.Hot = nil
			continue
		}
		v.Hot = order
		st.Reordered++
	}
	return st, vecs, nil
}

// SpecializeChecked runs Specialize and equivalence-gates the result:
// the pre-pass graph is cloned, the specialized graph is re-validated
// for well-formedness (which checks every Hot permutation) and then
// differentially compared with CheckEquivalent over the care-set
// outcome space. On any gate failure the hot orders are reverted and
// the error returned, so a caller never ships an unchecked layout. An
// outcome space too large to enumerate exhaustively counts as a pass —
// the pass only writes advisory layout metadata, and the per-reaction
// netfuzz differential covers the generated code.
func (g *SGraph) SpecializeChecked(p *SpecializeProfile) (SpecializeStats, []ProfileVector, error) {
	orig := g.Clone()
	revert := func() {
		for i, v := range g.Vertices {
			v.Hot = orig.Vertices[i].Hot
		}
	}
	st, vecs, err := g.Specialize(p)
	if err != nil {
		revert()
		return st, vecs, err
	}
	if err := g.CheckWellFormed(); err != nil {
		revert()
		return st, vecs, fmt.Errorf("sgraph: specialize produced ill-formed graph: %w", err)
	}
	if err := g.CheckEquivalent(orig); err != nil && !errors.Is(err, ErrOutcomeSpaceTooLarge) {
		revert()
		return st, vecs, fmt.Errorf("sgraph: specialize equivalence gate: %w", err)
	}
	return st, vecs, nil
}
