package baseline

import (
	"fmt"
	"strconv"

	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/expr"
	"polis/internal/vm"
)

// TwoLevelJump generates the reference implementation the paper uses
// as the structured hand-coding baseline in Table II: a first multiway
// jump dispatches on the current state (the product of the control
// variables), a second on the concatenation of the state's decision
// variables packed into a single integer, and each table entry is the
// appropriate ASSIGN sequence. Within a state every relevant decision
// variable is evaluated on every reaction, and the decision table is
// exponential in their number — the structural reasons this scheme
// loses to the optimized decision graph.
//
// The decision table is exponential in the number of Boolean tests;
// machines with more than maxBoolTests of them are rejected.
func TwoLevelJump(c *cfsm.CFSM, sigs codegen.SignalMap, opts codegen.Options) (*vm.Program, error) {
	const maxBoolTests = 12
	if err := c.Validate(); err != nil {
		return nil, err
	}
	var selectors []*cfsm.Test
	var bools []*cfsm.Test
	for _, t := range c.Tests {
		if t.Kind == cfsm.TestSelector {
			selectors = append(selectors, t)
		} else {
			bools = append(bools, t)
		}
	}
	if len(bools) > maxBoolTests {
		return nil, fmt.Errorf("baseline: %d boolean tests exceed the two-level limit of %d",
			len(bools), maxBoolTests)
	}
	states := 1
	for _, s := range selectors {
		states *= s.Arity()
	}

	b, err := codegen.NewBuilder(c, sigs, opts, nil)
	if err != nil {
		return nil, err
	}
	p := b.Prog()

	// Level 1: pack the control state into RegTmp and dispatch.
	p.Comment(p.Emit(vm.Instr{Op: vm.LDI, Rd: codegen.RegAcc, Imm: 0}), "state index")
	for _, t := range selectors {
		p.Emit(vm.Instr{Op: vm.LDI, Rd: codegen.RegAux, Imm: int64(t.Arity())})
		p.Emit(vm.Instr{Op: vm.ALU, AOp: expr.OpMul, Rd: codegen.RegAcc, Rs: codegen.RegAux})
		p.Emit(vm.Instr{Op: vm.LD, Rd: codegen.RegVal, Addr: b.StateReadAddr(t.Sel)})
		p.Emit(vm.Instr{Op: vm.ALU, AOp: expr.OpAdd, Rd: codegen.RegAcc, Rs: codegen.RegVal})
	}
	stateTable := make([]int32, states)
	if states > 1 {
		first := p.Labels("state", states)
		for s := range stateTable {
			stateTable[s] = first + int32(s)
		}
		p.Emit(vm.Instr{Op: vm.JTAB, Rs: codegen.RegAcc, Label: p.Table(stateTable...)})
	}

	// Level 2, per state: pack the decision variables relevant to the
	// state's transitions (a hand-coder reads only what the state
	// needs) and dispatch on the packed word.
	for s := 0; s < states; s++ {
		bools := relevantBools(c, selectors, bools, s)
		decisions := 1 << len(bools)
		if states > 1 {
			if err := p.Bind(stateTable[s]); err != nil {
				return nil, err
			}
		}
		p.Comment(p.Emit(vm.Instr{Op: vm.LDI, Rd: codegen.RegAcc, Imm: 0}), "decision word")
		for _, t := range bools {
			// Shift left by one, add the outcome.
			p.Emit(vm.Instr{Op: vm.LDI, Rd: codegen.RegAux, Imm: 2})
			p.Emit(vm.Instr{Op: vm.ALU, AOp: expr.OpMul, Rd: codegen.RegAcc, Rs: codegen.RegAux})
			switch t.Kind {
			case cfsm.TestPresence:
				p.Annotate(p.Emit(vm.Instr{Op: vm.SVC, Num: vm.SvcPresent, Imm: int64(b.SignalID(t.Signal))}), t)
				p.Emit(vm.Instr{Op: vm.ALU, AOp: expr.OpAdd, Rd: codegen.RegAcc, Rs: 0})
			case cfsm.TestPredicate:
				if err := b.CompileExpr(t.Pred); err != nil {
					return nil, err
				}
				p.Emit(vm.Instr{Op: vm.NOT, Rd: codegen.RegVal})
				p.Emit(vm.Instr{Op: vm.NOT, Rd: codegen.RegVal})
				p.Emit(vm.Instr{Op: vm.ALU, AOp: expr.OpAdd, Rd: codegen.RegAcc, Rs: codegen.RegVal})
			}
		}
		dTable := make([]int32, decisions)
		first := p.Labels("s"+strconv.Itoa(s)+"d", decisions)
		for d := range dTable {
			dTable[d] = first + int32(d)
		}
		p.Emit(vm.Instr{Op: vm.JTAB, Rs: codegen.RegAcc, Label: p.Table(dTable...)})
		for d := 0; d < decisions; d++ {
			if err := p.Bind(dTable[d]); err != nil {
				return nil, err
			}
			tr := matchTransition(c, selectors, bools, s, d)
			if tr != nil {
				for _, a := range tr.Actions {
					if err := b.EmitAction(a); err != nil {
						return nil, err
					}
				}
			}
			p.Emit(vm.Instr{Op: vm.HALT})
		}
	}
	return b.Finish()
}

// decodeState unpacks the level-1 state index into selector outcomes.
func decodeState(selectors []*cfsm.Test, s int) map[*cfsm.Test]int {
	outcome := make(map[*cfsm.Test]int, len(selectors))
	for i := len(selectors) - 1; i >= 0; i-- {
		t := selectors[i]
		outcome[t] = s % t.Arity()
		s /= t.Arity()
	}
	return outcome
}

// stateCompatible reports whether a transition's selector conditions
// match the decoded state.
func stateCompatible(tr *cfsm.Transition, stateOutcome map[*cfsm.Test]int) bool {
	for _, cond := range tr.Guard {
		if cond.Test.Kind == cfsm.TestSelector && stateOutcome[cond.Test] != cond.Val {
			return false
		}
	}
	return true
}

// relevantBools returns the Boolean tests appearing in guards of
// transitions compatible with state s, preserving declaration order.
func relevantBools(c *cfsm.CFSM, selectors, bools []*cfsm.Test, s int) []*cfsm.Test {
	st := decodeState(selectors, s)
	used := make(map[*cfsm.Test]bool)
	for _, tr := range c.Trans {
		if !stateCompatible(tr, st) {
			continue
		}
		for _, cond := range tr.Guard {
			if cond.Test.Kind != cfsm.TestSelector {
				used[cond.Test] = true
			}
		}
	}
	var out []*cfsm.Test
	for _, t := range bools {
		if used[t] {
			out = append(out, t)
		}
	}
	return out
}

// matchTransition finds the transition enabled under the packed state
// index s and decision word d over the given per-state bools, or nil.
func matchTransition(c *cfsm.CFSM, selectors, bools []*cfsm.Test, s, d int) *cfsm.Transition {
	outcome := decodeState(selectors, s)
	for i := len(bools) - 1; i >= 0; i-- {
		outcome[bools[i]] = d & 1
		d >>= 1
	}
	known := make(map[*cfsm.Test]bool, len(outcome))
	for t := range outcome {
		known[t] = true
	}
	for _, tr := range c.Trans {
		match := true
		for _, cond := range tr.Guard {
			if !known[cond.Test] || outcome[cond.Test] != cond.Val {
				match = false
				break
			}
		}
		if match {
			return tr
		}
	}
	return nil
}
