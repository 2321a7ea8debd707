package sgraph

import (
	"errors"
	"fmt"

	"polis/internal/cfsm"
)

// ErrOutcomeSpaceTooLarge is returned by the exhaustive checks when
// the product of test arities exceeds the enumeration bound. Callers
// that use the checks as an optional gate (SpecializeChecked) detect
// it with errors.Is and degrade gracefully instead of failing.
var ErrOutcomeSpaceTooLarge = errors.New("sgraph: outcome space too large for exhaustive check")

// CheckFunctional verifies Definition 2 of the paper over the whole
// test-outcome space: for every combination of test outcomes the
// s-graph's evaluation must terminate at END, visit each primitive
// test at most once (the property the outputs-after-support ordering
// guarantees), and produce exactly the action set of the reactive
// function r. The outcome space is the product of the test arities;
// the check refuses spaces larger than maxCombos.
func (g *SGraph) CheckFunctional(r *cfsm.Reactive) error {
	const maxCombos = 1 << 22
	combos := 1
	for _, t := range g.C.Tests {
		combos *= t.Arity()
		if combos > maxCombos {
			return ErrOutcomeSpaceTooLarge
		}
	}
	outcome := make([]int, len(g.C.Tests))
	idOf := make(map[*cfsm.Test]int, len(g.C.Tests))
	for i, t := range g.C.Tests {
		idOf[t] = i
	}
	for k := 0; k < combos; k++ {
		// Decode the combination.
		rem := k
		for i := len(g.C.Tests) - 1; i >= 0; i-- {
			a := g.C.Tests[i].Arity()
			outcome[i] = rem % a
			rem /= a
		}
		// Definition 2 need only hold on the care set: a combination
		// that sets two tests of a declared exclusivity group cannot
		// arise from any snapshot (cfsm.MarkExclusive's contract, the
		// same declaration the estimator's false-path pruning and the
		// reduction engine's don't-care elimination trust), so the
		// graph may resolve it arbitrarily.
		if violatesExclusive(g.C, outcome, idOf) {
			continue
		}
		// Walk the graph under these outcomes.
		fired := make([]bool, len(g.C.Actions))
		seen := make(map[*cfsm.Test]bool)
		v := g.Begin
		steps := 0
		for v.Kind != End {
			if steps++; steps > len(g.Vertices)+1 {
				return fmt.Errorf("sgraph: combination %d: evaluation does not terminate", k)
			}
			switch v.Kind {
			case Begin:
				v = v.Next
			case Assign:
				fired[g.C.ActionID(v.Action)] = true
				v = v.Next
			case Test:
				idx := 0
				for _, t := range v.Tests {
					if seen[t] {
						return fmt.Errorf("sgraph: combination %d: test %s visited twice on one path",
							k, t.Name())
					}
					seen[t] = true
					idx = idx*t.Arity() + outcome[idOf[t]]
				}
				v = v.Children[idx]
			}
		}
		// Compare against the reactive function.
		want, err := r.ActionSetFor(outcome)
		if err != nil {
			return fmt.Errorf("sgraph: combination %d: %w", k, err)
		}
		for j := range want {
			if fired[j] != want[j] {
				return fmt.Errorf(
					"sgraph: combination %d: action %s fired=%v, reactive function says %v",
					k, g.C.Actions[j].Name(), fired[j], want[j])
			}
		}
	}
	return nil
}

// violatesExclusive reports whether the outcome combination sets two
// or more tests of one declared exclusivity group.
func violatesExclusive(c *cfsm.CFSM, outcome []int, idOf map[*cfsm.Test]int) bool {
	for _, grp := range c.Exclusive {
		n := 0
		for _, t := range grp {
			if i, ok := idOf[t]; ok && outcome[i] == 1 {
				if n++; n > 1 {
					return true
				}
			}
		}
	}
	return false
}

// walkOutcome is one exhaustive-check evaluation of g under a fixed
// outcome vector: it returns the emission sequence (in path order),
// the last assign per state variable, and the fired flag. Unlike CheckFunctional's walk it tolerates a
// test appearing more than once on a path (the outcome vector keeps
// repeated evaluations consistent), so it can compare graphs the
// reduction engine has not cleaned up yet; termination is still
// enforced, since any path of a well-formed DAG visits each vertex at
// most once.
func (g *SGraph) walkOutcome(outcome []int, idOf map[*cfsm.Test]int) (emits []*cfsm.Action, last map[*cfsm.StateVar]*cfsm.Action, fired bool, err error) {
	last = make(map[*cfsm.StateVar]*cfsm.Action)
	v := g.Begin
	steps := 0
	for v.Kind != End {
		if steps++; steps > len(g.Vertices)+1 {
			return nil, nil, false, fmt.Errorf("evaluation does not terminate")
		}
		switch v.Kind {
		case Begin:
			v = v.Next
		case Assign:
			fired = true
			if v.Action.Kind == cfsm.ActEmit {
				emits = append(emits, v.Action)
			} else {
				last[v.Action.Var] = v.Action
			}
			v = v.Next
		case Test:
			idx := 0
			for _, t := range v.Tests {
				i, ok := idOf[t]
				if !ok {
					return nil, nil, false, fmt.Errorf("test %s not declared by the CFSM", t.Name())
				}
				idx = idx*t.Arity() + outcome[i]
			}
			v = v.Children[idx]
		}
	}
	return emits, last, fired, nil
}

// CheckEquivalent verifies that g and h implement the same observable
// reaction for every care-set combination of test outcomes: the same
// emission sequence, the same last writer per state variable (under
// copy-on-entry the last ASSIGN on a path determines the committed
// value), and the same fired flag. This is the differential gate for
// reductions — ASSIGN straightening legitimately removes dead writes
// from the fired action set, which the exact set comparison of
// CheckFunctional would reject, but the observable reaction must
// survive every rewrite. Both graphs must belong to the same CFSM.
func (g *SGraph) CheckEquivalent(h *SGraph) error {
	if g.C != h.C {
		return fmt.Errorf("sgraph: CheckEquivalent across different CFSMs")
	}
	const maxCombos = 1 << 22
	combos := 1
	for _, t := range g.C.Tests {
		combos *= t.Arity()
		if combos > maxCombos {
			return ErrOutcomeSpaceTooLarge
		}
	}
	outcome := make([]int, len(g.C.Tests))
	idOf := make(map[*cfsm.Test]int, len(g.C.Tests))
	for i, t := range g.C.Tests {
		idOf[t] = i
	}
	for k := 0; k < combos; k++ {
		rem := k
		for i := len(g.C.Tests) - 1; i >= 0; i-- {
			a := g.C.Tests[i].Arity()
			outcome[i] = rem % a
			rem /= a
		}
		if violatesExclusive(g.C, outcome, idOf) {
			continue
		}
		ge, gl, gf, err := g.walkOutcome(outcome, idOf)
		if err != nil {
			return fmt.Errorf("sgraph: combination %d: %v", k, err)
		}
		he, hl, hf, err := h.walkOutcome(outcome, idOf)
		if err != nil {
			return fmt.Errorf("sgraph: combination %d (other graph): %v", k, err)
		}
		if gf != hf {
			return fmt.Errorf("sgraph: combination %d: fired %v vs %v", k, gf, hf)
		}
		if len(ge) != len(he) {
			return fmt.Errorf("sgraph: combination %d: %d emission(s) vs %d", k, len(ge), len(he))
		}
		for i := range ge {
			if !ge[i].Same(he[i]) {
				return fmt.Errorf("sgraph: combination %d: emission %d is %s vs %s", k, i, ge[i].Name(), he[i].Name())
			}
		}
		if len(gl) != len(hl) {
			return fmt.Errorf("sgraph: combination %d: %d state write(s) vs %d", k, len(gl), len(hl))
		}
		for sv, a := range gl {
			b := hl[sv]
			if b == nil {
				return fmt.Errorf("sgraph: combination %d: only one graph writes %s", k, sv.Name)
			}
			if !a.Same(b) {
				return fmt.Errorf("sgraph: combination %d: last write to %s is %s vs %s", k, sv.Name, a.Name(), b.Name())
			}
		}
	}
	return nil
}
