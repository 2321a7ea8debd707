// Package verify provides the formal-verification capability the
// CFSM model is chosen for (Section I-G: "there are abundant
// theoretical and practical results concerning their manipulation
// (minimization, encoding, formal verification of properties)"):
// explicit-state reachability analysis of one CFSM under an enumerated
// input space, and invariant checking with counterexample traces.
package verify

import (
	"fmt"
	"sort"
	"strings"

	"polis/internal/cfsm"
)

// InputSpace enumerates the environment behaviours explored: every
// subset of signals can be present in a step, and each present valued
// signal takes one of its candidate values.
type InputSpace struct {
	// Signals are the inputs driven by the exploration, in a fixed
	// order. Pure signals toggle presence only; valued signals range
	// over Values[sig].
	Signals []*cfsm.Signal
	Values  map[*cfsm.Signal][]int64
}

// DefaultSpace drives all inputs of m; valued inputs get the provided
// candidate values (required for each valued input).
func DefaultSpace(m *cfsm.CFSM, values map[*cfsm.Signal][]int64) (*InputSpace, error) {
	sp := &InputSpace{Values: values}
	for _, in := range m.Inputs {
		sp.Signals = append(sp.Signals, in)
		if !in.Pure && len(values[in]) == 0 {
			return nil, fmt.Errorf("verify: valued input %s needs candidate values", in.Name)
		}
	}
	return sp, nil
}

// stimulus is one concrete input assignment.
type stimulus struct {
	present map[*cfsm.Signal]bool
	values  map[*cfsm.Signal]int64
}

// enumerate lists every stimulus of the space (exponential; spaces are
// small by construction).
func (sp *InputSpace) enumerate() []stimulus {
	out := []stimulus{{present: map[*cfsm.Signal]bool{}, values: map[*cfsm.Signal]int64{}}}
	for _, sig := range sp.Signals {
		var next []stimulus
		for _, st := range out {
			// Absent.
			next = append(next, st)
			// Present, with each candidate value (one entry for pure).
			vals := []int64{0}
			if !sig.Pure {
				vals = sp.Values[sig]
			}
			for _, v := range vals {
				p := map[*cfsm.Signal]bool{sig: true}
				vs := map[*cfsm.Signal]int64{}
				for k, b := range st.present {
					p[k] = b
				}
				for k, b := range st.values {
					vs[k] = b
				}
				if !sig.Pure {
					vs[sig] = v
				}
				next = append(next, stimulus{present: p, values: vs})
			}
		}
		out = next
	}
	return out
}

// State is one reachable valuation of the machine's state variables.
type State map[*cfsm.StateVar]int64

// key gives a canonical string for a state.
func key(m *cfsm.CFSM, st State) string {
	var b strings.Builder
	for _, sv := range m.States {
		fmt.Fprintf(&b, "%s=%d;", sv.Name, st[sv])
	}
	return b.String()
}

// Step is one transition of a counterexample trace.
type Step struct {
	Present map[*cfsm.Signal]bool
	Values  map[*cfsm.Signal]int64
	After   State
}

// Result carries the exploration outcome.
type Result struct {
	// States maps canonical keys to reachable states.
	States map[string]State
	// Explored is the number of (state, stimulus) pairs examined.
	Explored int
	// Truncated reports that the state cap stopped the search.
	Truncated bool
	// Violation is the first invariant counterexample found, as a
	// trace from the initial state; nil when the invariant holds on
	// everything explored.
	Violation []Step
}

// maxStates caps the reachable set.
const maxStates = 100000

// Options configures the exploration.
type Options struct {
	// Invariant, if non-nil, is checked on every reachable state.
	Invariant func(State) bool
}

// Reachable explores the machine's state space breadth-first under the
// input space, checking the invariant if one is given. The search is
// exhaustive up to maxStates states, so an empty Violation with
// Truncated == false is a proof over the enumerated environment.
func Reachable(m *cfsm.CFSM, sp *InputSpace, opt Options) (*Result, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	stimuli := sp.enumerate()

	init := State{}
	for _, sv := range m.States {
		init[sv] = sv.Init
	}
	res := &Result{States: map[string]State{key(m, init): init}}
	type qent struct {
		st    State
		trace []Step
	}
	queue := []qent{{st: init}}
	if opt.Invariant != nil && !opt.Invariant(init) {
		res.Violation = []Step{}
		return res, nil
	}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, stim := range stimuli {
			res.Explored++
			snap := cfsm.Snapshot{
				Present: stim.present,
				Values:  stim.values,
				State:   cur.st,
			}
			r := m.React(snap)
			if !r.Fired {
				continue
			}
			nst := State{}
			for _, sv := range m.States {
				nst[sv] = r.NextState[sv]
			}
			k := key(m, nst)
			if _, seen := res.States[k]; seen {
				continue
			}
			res.States[k] = nst
			step := Step{Present: stim.present, Values: stim.values, After: nst}
			trace := append(append([]Step(nil), cur.trace...), step)
			if opt.Invariant != nil && !opt.Invariant(nst) {
				res.Violation = trace
				return res, nil
			}
			if len(res.States) >= maxStates {
				res.Truncated = true
				return res, nil
			}
			queue = append(queue, qent{st: nst, trace: trace})
		}
	}
	return res, nil
}

// FormatTrace renders a counterexample trace.
func FormatTrace(trace []Step) string {
	var b strings.Builder
	for i, s := range trace {
		fmt.Fprintf(&b, "step %d: inputs {", i+1)
		first := true
		for sig, p := range s.Present {
			if !p {
				continue
			}
			if !first {
				b.WriteString(", ")
			}
			first = false
			if sig.Pure {
				b.WriteString(sig.Name)
			} else {
				fmt.Fprintf(&b, "%s=%d", sig.Name, s.Values[sig])
			}
		}
		b.WriteString("} -> state {")
		first = true
		var svs []*cfsm.StateVar
		for sv := range s.After {
			svs = append(svs, sv)
		}
		sort.Slice(svs, func(i, j int) bool { return svs[i].Name < svs[j].Name })
		for _, sv := range svs {
			if !first {
				b.WriteString(", ")
			}
			first = false
			fmt.Fprintf(&b, "%s=%d", sv.Name, s.After[sv])
		}
		b.WriteString("}\n")
	}
	return b.String()
}
