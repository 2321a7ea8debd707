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
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

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

// Instr is one virtual instruction, a 24-byte value with no pointer in
// it that the assembler, machine, cycle analyzer and listing all read:
// the byte-sized fields share one word, Label and Addr the next, Imm
// the last. Fields are used according to Op; branch targets and jump
// tables index side tables of the instruction's Program.
type Instr struct {
	Op   OpCode
	Cond Cond
	// Fires marks the effect instruction of an ASSIGN vertex (its
	// state ST, SVC Emit or SVC EmitV): Machine.Run reports whether a
	// marked instruction executed. The mark has no cost, size or
	// listing of its own; check rejects it on any other instruction.
	Fires bool
	Rd    int8
	Rs    int8
	Rt    int8
	Num   int8    // SVC service number
	AOp   expr.Op // ALU operator
	// Label is the target of a BR, BRZ, BRNZ or JMP (a label index,
	// from Program.Label or Program.Labels) or the jump table of a
	// JTAB (from Program.Table).
	Label int32
	Addr  int32 // data word of a LD or ST
	Imm   int64
}

// Program is an assembled routine: the instruction stream and the side
// tables its instructions index. Addresses index the data memory of
// the machine; Words is the number of data words the routine uses.
//
// Labels are indices into a slice of positions. Their names are kept
// per range, not per label: a named label has one record, and a
// numbered range (Labels) one record for all its labels, whose names
// are rendered only into listings. Notes keep a reference that renders
// its text into the listing, so a program that is never listed holds
// no annotation text.
type Program struct {
	Name    string
	Instrs  []Instr
	Words   int            // data memory footprint in words
	Symbols map[string]int // variable name -> address, for listings

	at     []int32      // instruction index of each label, -1 until bound
	names  []labelNames // label names, by first label index
	tables [][]int32    // jump tables of label indices
	notes  []note       // listing annotations, in instruction order
}

// labelNames names the labels from index first up to the next
// record's first: one label called name or, for a numbered range, the
// labels name0, name1, and so on.
type labelNames struct {
	name     string
	first    int32
	numbered bool
}

// Note is a listing annotation that renders its own text, appending
// it to a listing's buffer.
type Note interface {
	AppendName(b []byte) []byte
}

// note annotates instruction at in listings.
type note struct {
	at   int32
	note Note
}

// textNote is a Note of fixed text.
type textNote string

func (t textNote) AppendName(b []byte) []byte { return append(b, t...) }

// NewProgram creates an empty program.
func NewProgram(name string) *Program {
	return &Program{Name: name, Symbols: make(map[string]int)}
}

// Emit appends an instruction and returns its index.
func (p *Program) Emit(i Instr) int {
	p.Instrs = append(p.Instrs, i)
	return len(p.Instrs) - 1
}

// Reserve makes room for notes more notes, so an assembler that knows
// how many it annotates appends them without regrowing.
func (p *Program) Reserve(notes int) {
	p.notes = slices.Grow(p.notes, notes)
}

// Alloc reserves a data word for the named variable and returns its
// address. Repeated calls with one name return the same address.
func (p *Program) Alloc(name string) int32 {
	if a, ok := p.Symbols[name]; ok {
		return int32(a)
	}
	a := p.Words
	p.Symbols[name] = a
	p.Words++
	return int32(a)
}

// Label returns the index of the named label, adding it, not yet
// bound to a position, on first use; a branch may name a label before
// it is bound. A name of a numbered range (Labels) returns that
// range's label.
func (p *Program) Label(name string) int32 {
	if l, ok := p.lookup(name); ok {
		return l
	}
	l := int32(len(p.at))
	p.names = append(p.names, labelNames{name: name, first: l})
	p.at = append(p.at, -1)
	return l
}

// Labels adds n labels named prefix0 to prefix<n-1>, not yet bound,
// and returns the index of the first: label first+k is prefix<k>. The
// range keeps one record for its names. They must differ from the
// program's other label names.
func (p *Program) Labels(prefix string, n int) int32 {
	first := int32(len(p.at))
	p.names = append(p.names, labelNames{name: prefix, first: first, numbered: true})
	p.at = slices.Grow(p.at, n)
	for range n {
		p.at = append(p.at, -1)
	}
	return first
}

// lookup returns the index of the label called name.
func (p *Program) lookup(name string) (int32, bool) {
	for i, r := range p.names {
		if !r.numbered {
			if r.name == name {
				return r.first, true
			}
			continue
		}
		if k, ok := labelNumber(name, r.name); ok && k < p.end(i)-r.first {
			return r.first + k, true
		}
	}
	return 0, false
}

// end returns the index after the last label named by names[i].
func (p *Program) end(i int) int32 {
	if i+1 < len(p.names) {
		return p.names[i+1].first
	}
	return int32(len(p.at))
}

// labelNumber parses name as prefix followed by a number written as
// strconv writes it (no sign, no leading zero).
func labelNumber(name, prefix string) (int32, bool) {
	digits, ok := strings.CutPrefix(name, prefix)
	if !ok {
		return 0, false
	}
	k, err := strconv.ParseUint(digits, 10, 31)
	var buf [10]byte
	if err != nil || string(strconv.AppendUint(buf[:0], k, 10)) != digits {
		return 0, false
	}
	return int32(k), true
}

// appendLabel appends the name of label l to b, nothing for an index
// that names none.
func (p *Program) appendLabel(b []byte, l int32) []byte {
	if l < 0 || int(l) >= len(p.at) {
		return b
	}
	// The last record whose range starts at or before l holds it.
	lo, hi := 0, len(p.names)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if p.names[m].first <= l {
			lo = m + 1
		} else {
			hi = m
		}
	}
	r := &p.names[lo-1]
	b = append(b, r.name...)
	if r.numbered {
		b = strconv.AppendInt(b, int64(l-r.first), 10)
	}
	return b
}

// labelName returns the name of label l, "" for an index that names
// none.
func (p *Program) labelName(l int32) string { return string(p.appendLabel(nil, l)) }

// Bind places label l at the current position.
func (p *Program) Bind(l int32) error {
	if p.at[l] >= 0 {
		return fmt.Errorf("vm: duplicate label %q", p.labelName(l))
	}
	p.at[l] = int32(len(p.Instrs))
	return nil
}

// Mark defines a label at the current position.
func (p *Program) Mark(label string) error { return p.Bind(p.Label(label)) }

// LabelAt returns the instruction index of a bound label.
func (p *Program) LabelAt(name string) (int, bool) {
	l, ok := p.lookup(name)
	if !ok || p.at[l] < 0 {
		return 0, false
	}
	return int(p.at[l]), true
}

// Table adds a jump table over the given labels, keeping the slice,
// and returns the index a JTAB takes as its Label.
func (p *Program) Table(labels ...int32) int32 {
	p.tables = append(p.tables, labels)
	return int32(len(p.tables) - 1)
}

// Annotate adds n's text to instruction i in listings. Notes are
// listed in instruction order, so they must be given in that order.
func (p *Program) Annotate(i int, n Note) {
	p.notes = append(p.notes, note{int32(i), n})
}

// Comment annotates instruction i in listings with fixed text; an
// empty text adds nothing.
func (p *Program) Comment(i int, text string) {
	if text != "" {
		p.Annotate(i, textNote(text))
	}
}

// entry returns the instruction index a run from label starts at: 0
// for an empty label that is not bound.
func (p *Program) entry(label string) (int, error) {
	pc, ok := p.LabelAt(label)
	if !ok && label != "" {
		return 0, fmt.Errorf("vm: unknown entry label %q", label)
	}
	return pc, nil
}

// table returns jump table t, nil if there is none.
func (p *Program) table(t int32) []int32 {
	if t < 0 || int(t) >= len(p.tables) {
		return nil
	}
	return p.tables[t]
}

// LabelError reports a branch, jump or jump-table entry whose target
// label the program does not define.
type LabelError struct {
	Instr int    // index of the referencing instruction
	Label string // the unbound label ("" for an index that names none)
}

func (e *LabelError) Error() string {
	if e.Label == "" {
		return fmt.Sprintf("vm: instr %d: label index out of range", e.Instr)
	}
	return fmt.Sprintf("vm: instr %d: undefined label %q", e.Instr, e.Label)
}

// DecodeError reports an instruction the machine cannot execute: an
// opcode, register, ALU operator or service number out of range, an
// empty or missing jump table, or a Fires mark on an instruction that
// is not an effect.
type DecodeError struct {
	Instr  int    // index of the malformed instruction
	Reason string // what is wrong with it
}

func (e *DecodeError) Error() string {
	return "vm: instr " + strconv.Itoa(e.Instr) + ": " + e.Reason
}

// target resolves label l referenced by instruction i.
func (p *Program) target(i int, l int32) (int, error) {
	if l < 0 || int(l) >= len(p.at) {
		return 0, &LabelError{Instr: i}
	}
	if p.at[l] < 0 {
		return 0, &LabelError{Instr: i, Label: p.labelName(l)}
	}
	return int(p.at[l]), nil
}

// check validates the fields instruction i uses: a *DecodeError for a
// malformed one, a *LabelError for a missing branch target. It is the
// one validator: Resolve, Machine.Run and AnalyzeCycles all go
// through it, and after it the machine indexes registers, cost tables
// and jump tables without further checks.
func (p *Program) check(i int) error {
	in := &p.Instrs[i]
	bad := func(format string, a ...any) error {
		return &DecodeError{Instr: i, Reason: fmt.Sprintf(format, a...)}
	}
	reg := func(rs ...int8) error {
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
		if in.AOp > expr.OpMax {
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
		tab := p.table(in.Label)
		if len(tab) == 0 {
			return bad("jump table %d empty or missing", in.Label)
		}
		for _, l := range tab {
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

// listingScratch is the working storage of one Listing call: the bound
// labels in listing order and the text under construction.
type listingScratch struct {
	marks []int32
	b     []byte
}

// listingBufs lends Listing its scratch. The listing returned is a
// copy of exactly the text's length, so no buffer outlives the call.
// Fresh scratch starts at a size most routines fit rather than growing
// from nothing.
var listingBufs = sync.Pool{New: func() any {
	return &listingScratch{marks: make([]int32, 0, 256), b: make([]byte, 0, 4<<10)}
}}

// compareLabels orders labels a and b by name.
func (p *Program) compareLabels(a, b int32) int {
	var x, y [32]byte
	return bytes.Compare(p.appendLabel(x[:0], a), p.appendLabel(y[:0], b))
}

// Listing renders a human-readable assembly listing: the labels bound
// at each position in name order, each instruction, and its notes.
// Every artifact carries one, so it is built with append and strconv
// rather than fmt, in scratch that the next call reuses.
func (p *Program) Listing() string {
	s := listingBufs.Get().(*listingScratch)
	marks := s.marks[:0]
	for l, at := range p.at {
		if at >= 0 {
			marks = append(marks, int32(l))
		}
	}
	slices.SortFunc(marks, func(a, b int32) int {
		if c := cmp.Compare(p.at[a], p.at[b]); c != 0 {
			return c
		}
		return p.compareLabels(a, b)
	})
	notes := p.notes
	b := s.b[:0]
	next := 0 // the first mark not yet listed
	labelsAt := func(i int) {
		for ; next < len(marks) && int(p.at[marks[next]]) <= i; next++ {
			if int(p.at[marks[next]]) == i { // a label set out of range is not listed
				b = append(p.appendLabel(b, marks[next]), ":\n"...)
			}
		}
	}
	reg := func(r int8) { b = strconv.AppendInt(append(b, 'r'), int64(r), 10) }
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
			b = p.appendLabel(b, in.Label)
		case BRZ, BRNZ:
			b = append(b, ' ')
			reg(in.Rs)
			b = append(b, ", "...)
			b = p.appendLabel(b, in.Label)
		case JMP:
			b = append(b, ' ')
			b = p.appendLabel(b, in.Label)
		case JTAB:
			b = append(b, ' ')
			reg(in.Rs)
			b = append(b, ", ["...)
			for k, l := range p.table(in.Label) {
				if k > 0 {
					b = append(b, ' ')
				}
				b = p.appendLabel(b, l)
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
		for ; len(notes) > 0 && int(notes[0].at) == i; notes = notes[1:] {
			b = notes[0].note.AppendName(append(b, "  ; "...))
		}
		b = append(b, '\n')
	}
	labelsAt(len(p.Instrs))
	text := string(b)
	s.marks, s.b = marks[:0], b[:0]
	listingBufs.Put(s)
	return text
}
