// Package vm implements the simulated embedded target processor the
// reproduction measures against. The paper compiled its generated C
// onto a Motorola 68HC11 (INTROL compiler), a MIPS R3000 and a DEC
// ALPHA; those targets are replaced here by a deterministic,
// cycle-accurate virtual CPU with two cost profiles — an 8-bit
// "HC11-class" micro-controller profile (expensive arithmetic library
// calls, short-branch encodings, slow RTOS traps) and a 32-bit
// "R3K-class" profile (uniform 4-byte instructions, fast ALU). The
// relationships the paper studies — estimated versus measured cost,
// and the relative cost of alternative code structures — only require
// such a fixed, measurable target; absolute byte and cycle values were
// target-specific in the paper as well.
package vm

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"polis/internal/expr"
)

// OpCode enumerates the virtual instruction set.
type OpCode uint8

// Instruction opcodes.
const (
	NOP  OpCode = iota
	LDI         // Rd <- Imm
	LD          // Rd <- Mem[Addr]
	ST          // Mem[Addr] <- Rs
	MOV         // Rd <- Rs
	ALU         // Rd <- Rd aop Rs (aop is an expr.Op)
	NEG         // Rd <- -Rd
	NOT         // Rd <- (Rd == 0)
	BR          // if Rs cond Rt then jump Label
	BRZ         // if Rs == 0 then jump Label
	BRNZ        // if Rs != 0 then jump Label
	JMP         // jump Label
	JTAB        // multiway jump: Table[Rs] (Rs must be in range)
	SVC         // RTOS service call (Num selects the service)
	HALT        // end of routine
	numOpcodes
)

var opcodeNames = [...]string{
	NOP: "nop", LDI: "ldi", LD: "ld", ST: "st", MOV: "mov", ALU: "alu",
	NEG: "neg", NOT: "not", BR: "br", BRZ: "brz", BRNZ: "brnz",
	JMP: "jmp", JTAB: "jtab", SVC: "svc", HALT: "halt",
}

func (o OpCode) String() string { return opcodeNames[o] }

// Cond is the comparison of a BR instruction.
type Cond uint8

// Branch conditions.
const (
	CondEQ Cond = iota
	CondNE
	CondLT
	CondLE
	CondGT
	CondGE
)

var condNames = [...]string{"eq", "ne", "lt", "le", "gt", "ge"}

func (c Cond) String() string { return condNames[c] }

// Holds reports whether the condition holds for the operand values.
func (c Cond) Holds(a, b int64) bool {
	switch c {
	case CondEQ:
		return a == b
	case CondNE:
		return a != b
	case CondLT:
		return a < b
	case CondLE:
		return a <= b
	case CondGT:
		return a > b
	default:
		return a >= b
	}
}

// Service numbers for SVC.
const (
	SvcPresent = iota // r0 <- presence flag of signal Num arg (Imm)
	SvcValue          // r0 <- value of input signal Imm
	SvcEmit           // emit pure signal Imm
	SvcEmitV          // emit signal Imm with value in Rs
)

// Instr is one virtual instruction. Fields are used according to Op.
type Instr struct {
	Op   OpCode
	Cond Cond
	// Fires marks the effect instruction of an ASSIGN vertex (its
	// state ST, SVC Emit or SVC EmitV): Machine.Run reports whether a
	// marked instruction executed. The mark has no cost, size or
	// listing of its own; decode rejects it on any other instruction.
	Fires bool
	Rd    int
	Rs    int
	Rt    int
	AOp   expr.Op
	Imm   int64
	Addr  int
	Num   int      // SVC service number
	Label string   // branch/jump target
	Table []string // JTAB targets
	// Comment annotates listings with the originating s-graph
	// vertex; it has no semantic effect.
	Comment string
}

// Program is an assembled routine: a label map plus the instruction
// stream. Addresses index the data memory of the machine; Words is
// the number of data words the routine uses.
type Program struct {
	Name    string
	Instrs  []Instr
	Labels  map[string]int // label -> instruction index
	Words   int            // data memory footprint in words
	Symbols map[string]int // variable name -> address, for listings
}

// NewProgram creates an empty program.
func NewProgram(name string) *Program {
	return &Program{
		Name:    name,
		Labels:  make(map[string]int),
		Symbols: make(map[string]int),
	}
}

// Emit appends an instruction and returns its index.
func (p *Program) Emit(i Instr) int {
	p.Instrs = append(p.Instrs, i)
	return len(p.Instrs) - 1
}

// Mark defines a label at the current position.
func (p *Program) Mark(label string) error {
	if _, dup := p.Labels[label]; dup {
		return fmt.Errorf("vm: duplicate label %q", label)
	}
	p.Labels[label] = len(p.Instrs)
	return nil
}

// Alloc reserves a data word for the named variable and returns its
// address. Repeated calls with one name return the same address.
func (p *Program) Alloc(name string) int {
	if a, ok := p.Symbols[name]; ok {
		return a
	}
	a := p.Words
	p.Symbols[name] = a
	p.Words++
	return a
}

// LabelError reports a branch, jump or jump-table entry whose target
// label the program does not define.
type LabelError struct {
	Instr int    // index of the referencing instruction
	Label string // the missing label ("" for an empty one)
}

func (e *LabelError) Error() string {
	if e.Label == "" {
		return fmt.Sprintf("vm: instr %d: empty label", e.Instr)
	}
	return fmt.Sprintf("vm: instr %d: undefined label %q", e.Instr, e.Label)
}

// DecodeError reports an instruction the machine cannot execute: an
// opcode, register, ALU operator or service number out of range, an
// empty jump table, or a Fires mark on an instruction that is not an
// effect.
type DecodeError struct {
	Instr  int    // index of the malformed instruction
	Reason string // what is wrong with it
}

func (e *DecodeError) Error() string {
	return "vm: instr " + strconv.Itoa(e.Instr) + ": " + e.Reason
}

// target resolves label l referenced by instruction i.
func (p *Program) target(i int, l string) (int, error) {
	pc, ok := p.Labels[l]
	if !ok || l == "" {
		return 0, &LabelError{Instr: i, Label: l}
	}
	return pc, nil
}

// check validates the fields instruction i uses: a *DecodeError for a
// malformed one, a *LabelError for a missing branch target.
func (p *Program) check(i int) error {
	in := &p.Instrs[i]
	bad := func(format string, a ...any) error {
		return &DecodeError{Instr: i, Reason: fmt.Sprintf(format, a...)}
	}
	reg := func(rs ...int) error {
		for _, r := range rs {
			if r < 0 || r >= NumRegs {
				return bad("register r%d out of range", r)
			}
		}
		return nil
	}
	if in.Op >= numOpcodes {
		return bad("opcode %d out of range", in.Op)
	}
	if in.Fires && in.Op != ST && !(in.Op == SVC && (in.Num == SvcEmit || in.Num == SvcEmitV)) {
		return bad("fires mark on a %s, not an effect", in.Op)
	}
	var err error
	switch in.Op {
	case LDI, LD, NEG, NOT:
		err = reg(in.Rd)
	case ST, BRZ, BRNZ, JTAB:
		err = reg(in.Rs)
	case MOV:
		err = reg(in.Rd, in.Rs)
	case ALU:
		if in.AOp < 0 || int(in.AOp) >= expr.NumOps() {
			return bad("ALU operator %d out of range", in.AOp)
		}
		err = reg(in.Rd, in.Rs)
	case BR:
		if in.Cond > CondGE {
			return bad("branch condition %d out of range", in.Cond)
		}
		err = reg(in.Rs, in.Rt)
	case SVC:
		if in.Num < SvcPresent || in.Num > SvcEmitV {
			return bad("unknown service %d", in.Num)
		}
		if in.Num == SvcEmitV {
			err = reg(in.Rs)
		}
	}
	if err != nil {
		return err
	}
	switch in.Op {
	case BR, BRZ, BRNZ, JMP:
		_, err = p.target(i, in.Label)
	case JTAB:
		if len(in.Table) == 0 {
			return bad("empty jump table")
		}
		for _, l := range in.Table {
			if _, err = p.target(i, l); err != nil {
				break
			}
		}
	}
	return err
}

// Resolve verifies that every instruction is well formed (a malformed
// one is reported as a *DecodeError) and that every referenced label
// exists (a missing one is reported as a *LabelError).
func (p *Program) Resolve() error {
	for i := range p.Instrs {
		if err := p.check(i); err != nil {
			return err
		}
	}
	return nil
}

// Listing renders a human-readable assembly listing. Every artifact
// carries one, so it is built with append and strconv rather than fmt.
func (p *Program) Listing() string {
	type mark struct {
		at   int
		name string
	}
	marks := make([]mark, 0, len(p.Labels))
	for l, i := range p.Labels {
		marks = append(marks, mark{i, l})
	}
	slices.SortFunc(marks, func(a, b mark) int {
		return cmp.Or(cmp.Compare(a.at, b.at), strings.Compare(a.name, b.name))
	})
	b := make([]byte, 0, 32*(len(p.Instrs)+len(marks)+1))
	labelsAt := func(i int) {
		for ; len(marks) > 0 && marks[0].at <= i; marks = marks[1:] {
			if marks[0].at == i { // a label set out of range is not listed
				b = append(b, marks[0].name...)
				b = append(b, ":\n"...)
			}
		}
	}
	reg := func(r int) { b = strconv.AppendInt(append(b, 'r'), int64(r), 10) }
	b = append(b, "; routine "...)
	b = append(b, p.Name...)
	b = append(b, " ("...)
	b = strconv.AppendInt(b, int64(p.Words), 10)
	b = append(b, " words of data)\n"...)
	for i, in := range p.Instrs {
		labelsAt(i)
		b = append(b, "  "...)
		op := in.Op.String()
		b = append(b, op...)
		for k := len(op); k < 5; k++ {
			b = append(b, ' ')
		}
		switch in.Op {
		case LDI:
			b = append(b, ' ')
			reg(in.Rd)
			b = append(b, ", #"...)
			b = strconv.AppendInt(b, in.Imm, 10)
		case LD:
			b = append(b, ' ')
			reg(in.Rd)
			b = append(b, ", ["...)
			b = strconv.AppendInt(b, int64(in.Addr), 10)
			b = append(b, ']')
		case ST:
			b = append(b, " ["...)
			b = strconv.AppendInt(b, int64(in.Addr), 10)
			b = append(b, "], "...)
			reg(in.Rs)
		case MOV:
			b = append(b, ' ')
			reg(in.Rd)
			b = append(b, ", "...)
			reg(in.Rs)
		case ALU:
			b = append(b, '.')
			b = append(b, in.AOp.Name()...)
			b = append(b, ' ')
			reg(in.Rd)
			b = append(b, ", "...)
			reg(in.Rs)
		case NEG, NOT:
			b = append(b, ' ')
			reg(in.Rd)
		case BR:
			b = append(b, '.')
			b = append(b, in.Cond.String()...)
			b = append(b, ' ')
			reg(in.Rs)
			b = append(b, ", "...)
			reg(in.Rt)
			b = append(b, ", "...)
			b = append(b, in.Label...)
		case BRZ, BRNZ:
			b = append(b, ' ')
			reg(in.Rs)
			b = append(b, ", "...)
			b = append(b, in.Label...)
		case JMP:
			b = append(b, ' ')
			b = append(b, in.Label...)
		case JTAB:
			b = append(b, ' ')
			reg(in.Rs)
			b = append(b, ", ["...)
			for k, l := range in.Table {
				if k > 0 {
					b = append(b, ' ')
				}
				b = append(b, l...)
			}
			b = append(b, ']')
		case SVC:
			b = append(b, " #"...)
			b = strconv.AppendInt(b, int64(in.Num), 10)
			b = append(b, ", sig="...)
			b = strconv.AppendInt(b, in.Imm, 10)
			b = append(b, ", "...)
			reg(in.Rs)
		}
		if in.Comment != "" {
			b = append(b, "  ; "...)
			b = append(b, in.Comment...)
		}
		b = append(b, '\n')
	}
	labelsAt(len(p.Instrs))
	return string(b)
}
