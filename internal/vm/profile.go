package vm

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"polis/internal/expr"
)

// Profile is the cost model of one target system: per-instruction
// sizes in bytes and timings in clock cycles, arithmetic library
// costs, and the short-branch encoding the paper's Section II-A3
// mentions ("fewer bits of address for near jumps").
type Profile struct {
	Name string

	// System parameters (the paper's four system characterisation
	// parameters).
	IntBytes  int // size of an integer variable
	PtrBytes  int // size of a pointer
	WordBytes int // natural word size
	ClockKHz  int // CPU clock, for converting cycles to time

	// Size[op] is the encoded size in bytes of each opcode (branches:
	// long form).
	Size [numOpcodes]int
	// ShortBranchSize and ShortBranchRange describe the compact
	// branch encoding: a BR/BRZ/BRNZ/JMP whose byte displacement fits
	// within the range uses the short size. Range 0 disables it.
	ShortBranchSize  int
	ShortBranchRange int
	// JTabEntryBytes is the table cost per JTAB target.
	JTabEntryBytes int

	// Cyc[op] is the base cycle cost of each opcode.
	Cyc [numOpcodes]int
	// TakenExtra is added when a conditional branch is taken.
	TakenExtra int
	// JTabEntryCyc is added per table entry skipped during dispatch
	// (index-scaled dispatch on simple cores; 0 on cores with a
	// direct indexed jump).
	JTabEntryCyc int
	// ALUCyc gives the cycle cost of each arithmetic/relational
	// operator, replacing the base ALU cost (the paper's ~30
	// predefined library functions).
	ALUCyc map[expr.Op]int
}

// ALUCycles returns the cycle cost of an ALU instruction with the
// given operator.
func (p *Profile) ALUCycles(op expr.Op) int {
	if c, ok := p.ALUCyc[op]; ok {
		return c
	}
	return p.Cyc[ALU]
}

// HC11 returns the 8-bit micro-controller profile: multi-byte
// arithmetic through slow library routines, 2-byte short branches
// within ±127 bytes, expensive RTOS traps. Values are synthetic but
// sized like a 2 MHz 68HC11 with a 16-bit int.
func HC11() *Profile {
	p := &Profile{
		Name:      "hc11",
		IntBytes:  2,
		PtrBytes:  2,
		WordBytes: 1,
		ClockKHz:  2000,

		ShortBranchSize:  2,
		ShortBranchRange: 127,
		JTabEntryBytes:   2,
		TakenExtra:       2,
		JTabEntryCyc:     2,
	}
	p.Size = [numOpcodes]int{
		NOP: 1, LDI: 3, LD: 3, ST: 3, MOV: 2, ALU: 3,
		NEG: 2, NOT: 2, BR: 4, BRZ: 3, BRNZ: 3, JMP: 3,
		JTAB: 4, SVC: 3, HALT: 1,
	}
	p.Cyc = [numOpcodes]int{
		NOP: 2, LDI: 2, LD: 4, ST: 4, MOV: 2, ALU: 6,
		NEG: 3, NOT: 3, BR: 4, BRZ: 3, BRNZ: 3, JMP: 3,
		JTAB: 6, SVC: 21, HALT: 2,
	}
	p.ALUCyc = map[expr.Op]int{
		expr.OpAdd: 7, expr.OpSub: 7,
		expr.OpMul: 24, expr.OpDiv: 44, expr.OpMod: 48,
		expr.OpEq: 9, expr.OpNe: 9, expr.OpLt: 10, expr.OpLe: 10,
		expr.OpGt: 10, expr.OpGe: 10,
		expr.OpAnd: 6, expr.OpOr: 6,
		expr.OpBitAnd: 6, expr.OpBitOr: 6, expr.OpBitXor: 6,
		expr.OpShl: 8, expr.OpShr: 8,
		expr.OpMin: 12, expr.OpMax: 12,
	}
	return p
}

// R3K returns the 32-bit RISC profile: uniform 4-byte instructions,
// single-cycle ALU, hardware multiply/divide, no short branches.
// Sized like a 25 MHz R3000.
func R3K() *Profile {
	p := &Profile{
		Name:      "r3k",
		IntBytes:  4,
		PtrBytes:  4,
		WordBytes: 4,
		ClockKHz:  25000,

		ShortBranchSize:  0,
		ShortBranchRange: 0,
		JTabEntryBytes:   4,
		TakenExtra:       1,
		JTabEntryCyc:     0,
	}
	for op := OpCode(0); op < numOpcodes; op++ {
		p.Size[op] = 4
	}
	p.Cyc = [numOpcodes]int{
		NOP: 1, LDI: 1, LD: 2, ST: 1, MOV: 1, ALU: 1,
		NEG: 1, NOT: 1, BR: 1, BRZ: 1, BRNZ: 1, JMP: 1,
		JTAB: 4, SVC: 12, HALT: 1,
	}
	p.ALUCyc = map[expr.Op]int{
		expr.OpAdd: 1, expr.OpSub: 1,
		expr.OpMul: 12, expr.OpDiv: 35, expr.OpMod: 35,
		expr.OpEq: 1, expr.OpNe: 1, expr.OpLt: 1, expr.OpLe: 1,
		expr.OpGt: 1, expr.OpGe: 1,
		expr.OpAnd: 1, expr.OpOr: 1,
		expr.OpBitAnd: 1, expr.OpBitOr: 1, expr.OpBitXor: 1,
		expr.OpShl: 1, expr.OpShr: 1,
		expr.OpMin: 2, expr.OpMax: 2,
	}
	return p
}

// targets is the name table of the built-in targets.
var targets = []*Profile{HC11(), R3K()}

// Target returns the shared instance of the built-in target with the
// given name ("hc11" or "r3k"); it must not be modified. HC11 and R3K
// build fresh profiles.
func Target(name string) (*Profile, error) {
	names := make([]string, len(targets))
	for i, p := range targets {
		if p.Name == name {
			return p, nil
		}
		names[i] = p.Name
	}
	return nil, fmt.Errorf("unknown target %q (accepted: %s)", name, strings.Join(names, ", "))
}

// InstrSize returns the encoded size of instruction i of prog when its
// branch displacement (in bytes) is disp; callers that do not know the
// displacement pass a large value to get the long form.
func (p *Profile) InstrSize(prog *Program, i, disp int) int {
	in := &prog.Instrs[i]
	switch in.Op {
	case BR, BRZ, BRNZ, JMP:
		if p.ShortBranchRange > 0 && disp >= -p.ShortBranchRange && disp <= p.ShortBranchRange {
			return p.ShortBranchSize
		}
		return p.Size[in.Op]
	case JTAB:
		return p.Size[JTAB] + len(prog.table(in.Label))*p.JTabEntryBytes
	default:
		return p.Size[in.Op]
	}
}

// layouts lends CodeSize its offset and size arrays, which no result
// keeps.
var layouts = sync.Pool{New: func() any { return new([]int) }}

// CodeSize returns the total encoded size of the program in bytes. It
// lays the program out under the profile's encoding, relaxing branches
// to their short form where the displacement allows (iterating to a
// fixed point, like a linker's branch relaxation).
func (p *Profile) CodeSize(prog *Program) int {
	n := len(prog.Instrs)
	bp := layouts.Get().(*[]int)
	buf := slices.Grow((*bp)[:0], 2*n+1)[:2*n+1]
	off, sizes := buf[:n+1], buf[n+1:] // off[i]: byte offset of instruction i
	// Start with long forms everywhere, then shrink.
	for i := range prog.Instrs {
		sizes[i] = p.InstrSize(prog, i, 1<<30)
	}
	for pass := 0; pass < 8; pass++ {
		off[0] = 0
		for i := 0; i < n; i++ {
			off[i+1] = off[i] + sizes[i]
		}
		changed := false
		for i := range prog.Instrs {
			switch prog.Instrs[i].Op {
			case BR, BRZ, BRNZ, JMP:
				t, err := prog.target(i, prog.Instrs[i].Label)
				if err != nil {
					continue // undefined target: keep the long form
				}
				ns := p.InstrSize(prog, i, off[t]-off[i+1])
				if ns != sizes[i] {
					sizes[i] = ns
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	size := 0
	for _, s := range sizes {
		size += s
	}
	*bp = buf[:0]
	layouts.Put(bp)
	return size
}

// DataSize returns the data footprint of the program in bytes.
func (p *Profile) DataSize(prog *Program) int {
	return prog.Words * p.IntBytes
}
