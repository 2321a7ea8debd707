package cfsm

import "polis/internal/mvar"

// EvalChi evaluates the characteristic function on explicit test
// outcomes and action flags.
func (r *Reactive) EvalChi(testVals []int, actVals []bool) bool {
	assign := make(map[*mvar.MV]int, len(testVals)+len(actVals))
	for i, v := range testVals {
		assign[r.TestVars[i]] = v
	}
	for j, b := range actVals {
		bit := 0
		if b {
			bit = 1
		}
		assign[r.ActVars[j]] = bit
	}
	return r.Space.EvalAssign(r.Chi, assign)
}

// SnapshotTestVals evaluates all tests of the CFSM under a snapshot,
// producing the test-outcome vector the reactive function consumes.
func (r *Reactive) SnapshotTestVals(snap Snapshot) []int {
	out := make([]int, len(r.C.Tests))
	for i, t := range r.C.Tests {
		out[i] = snap.EvalTest(t)
	}
	return out
}
