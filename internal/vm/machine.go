package vm

import (
	"fmt"

	"polis/internal/expr"
)

// NumRegs is the number of general-purpose registers.
const NumRegs = 8

// Host provides the RTOS services the SVC instruction traps into:
// event presence/value queries and event emission. The generated CFSM
// routines know signals by small integer ids assigned at code
// generation time.
type Host interface {
	Present(sig int) bool
	Value(sig int) int64
	Emit(sig int)
	EmitValue(sig int, v int64)
}

// NopHost ignores emissions and reports no events; useful for
// size/timing measurements that do not depend on the environment.
type NopHost struct{}

// Present implements Host.
func (NopHost) Present(int) bool { return false }

// Value implements Host.
func (NopHost) Value(int) int64 { return 0 }

// Emit implements Host.
func (NopHost) Emit(int) {}

// EmitValue implements Host.
func (NopHost) EmitValue(int, int64) {}

// Machine executes programs under a cost profile, counting exact
// cycles.
type Machine struct {
	// Prof is read when a program is decoded, on its first run on this
	// machine; replacing it forces a new decode, but a profile edited
	// in place needs a fresh Machine.
	Prof *Profile
	Regs [NumRegs]int64
	Mem  []int64
	Host Host

	// Cycles accumulates execution time across Run calls.
	Cycles int64
	// MaxSteps guards against runaway programs (default 1<<20).
	MaxSteps int
	// Fired reports whether the last Run executed an instruction
	// marked Fires: for generated code, whether any ASSIGN vertex ran
	// (the event-consumption bit of the paper's Section IV-D).
	Fired bool

	// prog and prof key the decoded stream: code holds one dinstr per
	// instruction and table the resolved JTAB targets. entry and
	// entryPC cache the last entry label, so repeated reactions of one
	// routine decode and look their label up only once.
	prog    *Program
	prof    *Profile
	code    []dinstr
	table   []int
	entry   string
	entryPC int
}

// Decoded-only opcodes: decode splits SVC by service, in service-number
// order, so the run loop dispatches once per instruction.
const (
	opPresent = numOpcodes + iota
	opValue
	opEmit
	opEmitV
)

// dinstr is one pre-decoded instruction (32 bytes): its base cost is
// folded in (the operator cost for ALU), its jump target or table
// offset resolved, and its operands narrowed.
type dinstr struct {
	op         OpCode
	cond       Cond
	fires      bool
	rd, rs, rt uint8
	aop        uint8 // expr.Op of an ALU
	cost       int64 // cycles charged on issue
	arg        int   // jump target, table offset or data address
	imm        int64 // LDI immediate, SVC signal id or JTAB entry count
}

// decode validates prog and lowers it to the dinstr stream under prof;
// table[d.arg+k] is the target of entry k of a JTAB d.
func decode(prog *Program, prof *Profile) ([]dinstr, []int, error) {
	code := make([]dinstr, len(prog.Instrs))
	var table []int
	for i := range prog.Instrs {
		if err := prog.check(i); err != nil {
			return nil, nil, err
		}
		in := &prog.Instrs[i]
		d := dinstr{
			op: in.Op, cond: in.Cond, fires: in.Fires,
			rd: uint8(in.Rd), rs: uint8(in.Rs), rt: uint8(in.Rt), aop: uint8(in.AOp),
			cost: int64(prof.Cyc[in.Op]), imm: in.Imm,
		}
		switch in.Op {
		case LD, ST:
			d.arg = in.Addr
		case ALU:
			d.cost = int64(prof.ALUCycles(in.AOp))
		case BR, BRZ, BRNZ, JMP:
			d.arg = prog.Labels[in.Label]
		case JTAB:
			d.arg, d.imm = len(table), int64(len(in.Table))
			for _, l := range in.Table {
				table = append(table, prog.Labels[l])
			}
		case SVC:
			d.op = opPresent + OpCode(in.Num)
		}
		code[i] = d
	}
	return code, table, nil
}

// NewMachine creates a machine with the given data memory size.
func NewMachine(prof *Profile, words int, host Host) *Machine {
	if host == nil {
		host = NopHost{}
	}
	return &Machine{
		Prof:     prof,
		Mem:      make([]int64, words),
		Host:     host,
		MaxSteps: 1 << 20,
	}
}

// Run executes prog from the instruction at the given label (or index
// 0 if label is empty) until HALT, returning the cycles consumed by
// this run and setting Fired. The first run of a program on this
// machine (or the first after Prof changes) decodes it: a malformed
// instruction fails with a *DecodeError and an undefined label with a
// *LabelError, before anything executes. The decoded stream is reused
// while the program keeps its length; a program edited in place must
// be run on a fresh Machine. A fault during execution still adds the
// cycles spent up to and including the faulting instruction to Cycles.
func (m *Machine) Run(prog *Program, label string) (int64, error) {
	if prog != m.prog || m.Prof != m.prof || len(prog.Instrs) != len(m.code) {
		code, table, err := decode(prog, m.Prof)
		if err != nil {
			return 0, err
		}
		m.prog, m.prof, m.code, m.table, m.entry, m.entryPC = prog, m.Prof, code, table, "", 0
	}
	if label != m.entry {
		idx := 0
		if label != "" {
			var ok bool
			if idx, ok = prog.Labels[label]; !ok {
				return 0, fmt.Errorf("vm: unknown entry label %q", label)
			}
		}
		m.entry, m.entryPC = label, idx
	}
	m.Fired = false
	code, table, mem, regs := m.code, m.table, m.Mem, &m.Regs
	taken, perEntry := int64(m.prof.TakenExtra), int64(m.prof.JTabEntryCyc)
	pc, cyc, maxSteps := m.entryPC, int64(0), m.MaxSteps
	for steps := 1; ; steps++ {
		if steps > maxSteps {
			return m.fault(cyc, fmt.Errorf("vm: step limit exceeded in %s", prog.Name))
		}
		if pc < 0 || pc >= len(code) {
			return m.fault(cyc, fmt.Errorf("vm: pc %d out of range in %s", pc, prog.Name))
		}
		d := &code[pc]
		cyc += d.cost
		pc++
		switch d.op {
		case LDI:
			regs[d.rd] = d.imm
		case LD:
			if d.arg < 0 || d.arg >= len(mem) {
				return m.fault(cyc, fmt.Errorf("vm: load address %d out of range", d.arg))
			}
			regs[d.rd] = mem[d.arg]
		case ST:
			if d.arg < 0 || d.arg >= len(mem) {
				return m.fault(cyc, fmt.Errorf("vm: store address %d out of range", d.arg))
			}
			mem[d.arg] = regs[d.rs]
			if d.fires {
				m.Fired = true
			}
		case MOV:
			regs[d.rd] = regs[d.rs]
		case ALU:
			regs[d.rd] = expr.EvalOp(expr.Op(d.aop), regs[d.rd], regs[d.rs])
		case NEG:
			regs[d.rd] = -regs[d.rd]
		case NOT:
			if regs[d.rd] == 0 {
				regs[d.rd] = 1
			} else {
				regs[d.rd] = 0
			}
		case BR:
			if d.cond.Holds(regs[d.rs], regs[d.rt]) {
				cyc += taken
				pc = d.arg
			}
		case BRZ:
			if regs[d.rs] == 0 {
				cyc += taken
				pc = d.arg
			}
		case BRNZ:
			if regs[d.rs] != 0 {
				cyc += taken
				pc = d.arg
			}
		case JMP:
			pc = d.arg
		case JTAB:
			idx := regs[d.rs]
			if idx < 0 || idx >= d.imm {
				return m.fault(cyc, fmt.Errorf("vm: jump table index %d out of range (%d entries)", idx, d.imm))
			}
			cyc += perEntry * idx
			pc = table[d.arg+int(idx)]
		case opPresent:
			if m.Host.Present(int(d.imm)) {
				regs[0] = 1
			} else {
				regs[0] = 0
			}
		case opValue:
			regs[0] = m.Host.Value(int(d.imm))
		case opEmit:
			m.Host.Emit(int(d.imm))
			if d.fires {
				m.Fired = true
			}
		case opEmitV:
			m.Host.EmitValue(int(d.imm), regs[d.rs])
			if d.fires {
				m.Fired = true
			}
		case HALT:
			m.Cycles += cyc
			return cyc, nil
		}
	}
}

// fault ends a run that failed after spending cyc cycles.
func (m *Machine) fault(cyc int64, err error) (int64, error) {
	m.Cycles += cyc
	return 0, err
}
