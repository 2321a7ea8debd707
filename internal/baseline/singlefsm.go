// Package baseline implements the code-generation schemes the paper
// compares POLIS against in Tables II and III:
//
//   - SingleFSM: explicit synchronous composition of the whole network
//     into one product machine, the Esterel-v3 strategy ("a very fast
//     implementation ... at the expense of code size").
//   - TwoLevelJump: the structured hand-coding style — a first multiway
//     jump on the current state and a second on the concatenation of
//     all decision variables packed into one integer, followed by the
//     appropriate ASSIGN sequence.
package baseline

import (
	"fmt"

	"polis/internal/cfsm"
	"polis/internal/expr"
)

// maxProductTransitions bounds the composition, which is exponential
// by design (that is the paper's point about the v3 strategy).
const maxProductTransitions = 200000

// SingleFSM composes a network of CFSMs into one CFSM under the
// synchronous hypothesis: in each tick every machine with a present
// input reacts, and internal events are produced and consumed within
// the same tick (zero-delay communication), so all internal signalling
// disappears from the product. Valued internal events are removed by
// substituting the emitter's value expression into the consumer's
// expressions. The number of product transitions is the product of the
// per-machine choices — the size blow-up the paper attributes to this
// strategy.
//
// Requirements: the network must be acyclic through internal signals,
// each internal signal must have one writer, state-variable names must
// be unique, and a signal written inside the network is treated as
// internal (not re-exported) when it also has internal readers.
func SingleFSM(n *cfsm.Network) (*cfsm.CFSM, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	order, err := n.TopoOrder()
	if err != nil {
		return nil, err
	}
	internal := make(map[*cfsm.Signal]bool)
	for _, s := range n.InternalSignals() {
		if len(n.Writers(s)) > 1 {
			return nil, fmt.Errorf("baseline: internal signal %s has multiple writers", s.Name)
		}
		internal[s] = true
	}

	prod := cfsm.New(n.Name + "_product")
	for _, s := range n.PrimaryInputs() {
		prod.AttachInput(s)
	}
	for _, s := range n.PrimaryOutputs() {
		prod.AttachOutput(s)
	}
	stOf := make(map[*cfsm.StateVar]*cfsm.StateVar)
	for _, m := range n.Machines {
		for _, sv := range m.States {
			stOf[sv] = prod.AddState(sv.Name, sv.Domain, sv.Init)
		}
	}

	// combo accumulates one tick's product behaviour while machines
	// are assigned choices in topological order.
	type combo struct {
		conds    []cfsm.Cond                // product guard
		emits    map[*cfsm.Signal]bool      // internal events this tick
		emitVals map[*cfsm.Signal]expr.Expr // their translated values
		actions  []*cfsm.Action             // product actions
	}
	cloneCombo := func(cb *combo) *combo {
		return &combo{
			conds:    append([]cfsm.Cond(nil), cb.conds...),
			emits:    copySigSet(cb.emits),
			emitVals: copySigExpr(cb.emitVals),
			actions:  append([]*cfsm.Action(nil), cb.actions...),
		}
	}

	// translateExpr rewrites a machine expression into the product
	// name space: values of internal inputs become the writer's value
	// expression for this tick (Const 0 when the signal is absent,
	// matching the reference semantics of an unset event value).
	translateExpr := func(m *cfsm.CFSM, e expr.Expr, cb *combo) expr.Expr {
		sub := make(map[string]expr.Expr)
		for _, name := range e.Vars(nil) {
			if i, value := m.Resolve(name); value && i >= 0 && internal[m.Inputs[i]] {
				if v, ok := cb.emitVals[m.Inputs[i]]; ok {
					sub[name] = v
				} else {
					sub[name] = expr.C(0)
				}
			}
		}
		return expr.Subst(e, sub)
	}

	count := 0
	var expandMachine func(mi int, cb *combo) error

	// foldMachine enumerates the complete outcome space of machine m
	// within the context cb: first the presence of each input
	// (internal presences are forced by the writers' choices), then
	// the outcomes of its selector and predicate tests. At each leaf
	// the unique enabled transition (if any) contributes its actions.
	// Complete enumeration is what makes the product equivalent to
	// the network even where no transition matches — and what makes
	// it blow up, as the paper observes for the v3 strategy.
	foldMachine := func(m *cfsm.CFSM, cb0 *combo, next func(cb *combo) error) error {
		var presence map[*cfsm.Signal]bool
		var outcomes map[*cfsm.Test]int

		matchAndGo := func(cb *combo) error {
			any := false
			for _, in := range m.Inputs {
				if presence[in] {
					any = true
					break
				}
			}
			if any {
				// First-match semantics, like cfsm.React.
				for _, tr := range m.Trans {
					ok := true
					for _, cond := range tr.Guard {
						t := cond.Test
						var got int
						if t.Kind == cfsm.TestPresence {
							if presence[t.Signal] {
								got = 1
							}
						} else {
							got = outcomes[t]
						}
						if got != cond.Val {
							ok = false
							break
						}
					}
					if !ok {
						continue
					}
					for _, a := range tr.Actions {
						switch a.Kind {
						case cfsm.ActEmit:
							var val expr.Expr
							if a.Value != nil {
								val = translateExpr(m, a.Value, cb)
							}
							if internal[a.Signal] {
								cb.emits[a.Signal] = true
								if val != nil {
									cb.emitVals[a.Signal] = val
								}
							} else if val != nil {
								cb.actions = append(cb.actions, prod.EmitV(a.Signal, val))
							} else {
								cb.actions = append(cb.actions, prod.Emit(a.Signal))
							}
						case cfsm.ActAssign:
							cb.actions = append(cb.actions,
								prod.Assign(stOf[a.Var], translateExpr(m, a.Expr, cb)))
						}
					}
					break
				}
			}
			return next(cb)
		}

		var tests []*cfsm.Test
		for _, t := range m.Tests {
			if t.Kind != cfsm.TestPresence {
				tests = append(tests, t)
			}
		}
		var enumTests func(ti int, cb *combo) error
		enumTests = func(ti int, cb *combo) error {
			if ti == len(tests) {
				return matchAndGo(cb)
			}
			t := tests[ti]
			for val := 0; val < t.Arity(); val++ {
				cb2 := cloneCombo(cb)
				var cond cfsm.Cond
				switch t.Kind {
				case cfsm.TestSelector:
					cond = cfsm.On(prod.Sel(stOf[t.Sel]), val)
				case cfsm.TestPredicate:
					cond = cfsm.On(prod.Pred(translateExpr(m, t.Pred, cb2)), val)
				}
				var clash bool
				cb2.conds, clash = addCond(cb2.conds, cond)
				if clash {
					continue
				}
				outcomes[t] = val
				if err := enumTests(ti+1, cb2); err != nil {
					return err
				}
			}
			return nil
		}

		var enumPresence func(ii int, cb *combo) error
		enumPresence = func(ii int, cb *combo) error {
			if ii == len(m.Inputs) {
				return enumTests(0, cb)
			}
			in := m.Inputs[ii]
			if internal[in] {
				presence[in] = cb.emits[in]
				return enumPresence(ii+1, cb)
			}
			for _, val := range []int{0, 1} {
				cb2 := cloneCombo(cb)
				var clash bool
				cb2.conds, clash = addCond(cb2.conds, cfsm.On(prod.Present(in), val))
				if clash {
					continue
				}
				presence[in] = val == 1
				if err := enumPresence(ii+1, cb2); err != nil {
					return err
				}
			}
			return nil
		}

		presence = make(map[*cfsm.Signal]bool)
		outcomes = make(map[*cfsm.Test]int)
		return enumPresence(0, cb0)
	}

	expandMachine = func(mi int, cb *combo) error {
		if mi == len(order) {
			if len(cb.actions) > 0 {
				if count++; count > maxProductTransitions {
					return fmt.Errorf("baseline: product exceeds %d transitions", maxProductTransitions)
				}
				prod.AddTransition(cb.conds, cb.actions...)
			}
			return nil
		}
		return foldMachine(order[mi], cb, func(cb2 *combo) error {
			return expandMachine(mi+1, cb2)
		})
	}

	seed := &combo{
		emits:    make(map[*cfsm.Signal]bool),
		emitVals: make(map[*cfsm.Signal]expr.Expr),
	}
	if err := expandMachine(0, seed); err != nil {
		return nil, err
	}
	return prod, nil
}

func copySigSet(m map[*cfsm.Signal]bool) map[*cfsm.Signal]bool {
	out := make(map[*cfsm.Signal]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func copySigExpr(m map[*cfsm.Signal]expr.Expr) map[*cfsm.Signal]expr.Expr {
	out := make(map[*cfsm.Signal]expr.Expr, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// addCond appends a condition, reporting a conflict with an existing
// condition on the same test.
func addCond(conds []cfsm.Cond, c cfsm.Cond) ([]cfsm.Cond, bool) {
	for _, old := range conds {
		if old.Test == c.Test {
			if old.Val != c.Val {
				return conds, true
			}
			return conds, false
		}
	}
	return append(conds, c), false
}
