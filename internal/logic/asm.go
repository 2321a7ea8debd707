package logic

import (
	"fmt"

	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/expr"
	"polis/internal/mvar"
	"polis/internal/vm"
)

// Assemble generates the branch-free circuit-evaluation routine: phase
// (a) samples every input into a word, phase (b) evaluates each ITE
// gate with bitwise arithmetic (no conditional branches, so every
// execution of the combinational core takes the same time), phase (c)
// tests each output flag once and performs the selected actions. This
// is the ESTEREL_OPT code style of Table III.
func Assemble(n *Network, sigs codegen.SignalMap, opts codegen.Options) (*vm.Program, error) {
	b, err := codegen.NewBuilder(n.C, sigs, opts, nil)
	if err != nil {
		return nil, err
	}
	p := b.Prog()

	gateAddr := make([]int, len(n.Gates))
	for _, g := range n.Gates {
		gateAddr[g.ID] = p.Alloc(fmt.Sprintf("net%d", g.ID))
	}

	// Phase a+b interleaved in topological order: inputs are gates.
	for _, g := range n.Gates {
		switch g.Kind {
		case GateConst:
			v := int64(0)
			if g.Val {
				v = 1
			}
			p.Emit(vm.Instr{Op: vm.LDI, Rd: codegen.RegVal, Imm: v})
			p.Emit(vm.Instr{Op: vm.ST, Addr: gateAddr[g.ID], Rs: codegen.RegVal})
		case GateInput:
			if err := emitInput(b, g); err != nil {
				return nil, err
			}
			p.Comment(p.Emit(vm.Instr{Op: vm.ST, Addr: gateAddr[g.ID], Rs: codegen.RegVal}), g.Test.Name())
		case GateIte:
			// r1 = if; r2 = then & if; r1 = (if ^ 1) & else; or.
			p.Emit(vm.Instr{Op: vm.LD, Rd: 1, Addr: gateAddr[g.If.ID]})
			p.Emit(vm.Instr{Op: vm.LD, Rd: 2, Addr: gateAddr[g.Then.ID]})
			p.Emit(vm.Instr{Op: vm.ALU, AOp: expr.OpBitAnd, Rd: 2, Rs: 1})
			p.Emit(vm.Instr{Op: vm.LDI, Rd: 3, Imm: 1})
			p.Emit(vm.Instr{Op: vm.ALU, AOp: expr.OpBitXor, Rd: 1, Rs: 3})
			p.Emit(vm.Instr{Op: vm.LD, Rd: 3, Addr: gateAddr[g.Else.ID]})
			p.Emit(vm.Instr{Op: vm.ALU, AOp: expr.OpBitAnd, Rd: 1, Rs: 3})
			p.Emit(vm.Instr{Op: vm.ALU, AOp: expr.OpBitOr, Rd: 1, Rs: 2})
			p.Emit(vm.Instr{Op: vm.ST, Addr: gateAddr[g.ID], Rs: 1})
		}
	}

	// Phase c: act on the output flags.
	for j, og := range n.Outputs {
		skip := p.Label(fmt.Sprintf("skip%d", j))
		p.Emit(vm.Instr{Op: vm.LD, Rd: codegen.RegVal, Addr: gateAddr[og.ID]})
		p.Emit(vm.Instr{Op: vm.BRZ, Rs: codegen.RegVal, Label: skip})
		if err := b.EmitAction(n.C.Actions[j]); err != nil {
			return nil, err
		}
		if err := p.Bind(skip); err != nil {
			return nil, err
		}
	}
	p.Emit(vm.Instr{Op: vm.HALT})
	return b.Finish()
}

// emitInput leaves the input gate's bit value in RegVal.
func emitInput(b *codegen.Builder, g *Gate) error {
	p := b.Prog()
	switch g.Test.Kind {
	case cfsm.TestPresence:
		p.Emit(vm.Instr{Op: vm.SVC, Num: vm.SvcPresent, Imm: int64(b.SignalID(g.Test.Signal))})
		p.Emit(vm.Instr{Op: vm.MOV, Rd: codegen.RegVal, Rs: 0})
		return nil
	case cfsm.TestPredicate:
		if err := b.CompileExpr(g.Test.Pred); err != nil {
			return err
		}
		// Normalise to 0/1.
		p.Emit(vm.Instr{Op: vm.NOT, Rd: codegen.RegVal})
		p.Emit(vm.Instr{Op: vm.NOT, Rd: codegen.RegVal})
		return nil
	default:
		nb := mvar.BitsFor(g.Test.Sel.Domain)
		shift := nb - 1 - g.Bit
		e := expr.NewBin(expr.OpBitAnd,
			expr.NewBin(expr.OpShr, expr.V(g.Test.Sel.Name), expr.C(int64(shift))),
			expr.C(1))
		return b.CompileExpr(e)
	}
}
