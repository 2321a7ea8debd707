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
	// Prof is read into the machine's cost table on the first run
	// after it changes; a profile edited in place needs a fresh
	// Machine.
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

	// prog is the program last checked, with checked instructions,
	// and cost the table of prof, both rebuilt when either changes.
	// entry and entryPC cache the last entry label, so repeated
	// reactions of one routine look it up once.
	prog    *Program
	checked int
	prof    *Profile
	cost    costs
	entry   string
	entryPC int
}

// costs is a profile's cycle model in the form the machine and the
// analyzer charge from: op[o] on issue of every opcode but ALU (whose
// entry is 0), alu[a] on issue of an ALU with operator a.
type costs struct {
	op       [numOpcodes]int64
	alu      [expr.OpMax + 1]int64
	taken    int64 // a taken conditional branch
	perEntry int64 // each jump-table entry skipped
}

func newCosts(p *Profile) costs {
	c := costs{taken: int64(p.TakenExtra), perEntry: int64(p.JTabEntryCyc)}
	for o, cyc := range p.Cyc {
		c.op[o] = int64(cyc)
	}
	c.op[ALU] = 0
	for a := range c.alu {
		c.alu[a] = int64(p.ALUCycles(expr.Op(a)))
	}
	return c
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
// machine (or the first after Prof changes or the program grows)
// checks every instruction: a malformed one fails with a *DecodeError
// and an undefined label with a *LabelError, before anything executes.
// An instruction edited in place after that is not checked again; run
// the edited program on a fresh Machine. A fault during execution
// still adds the cycles spent up to and including the faulting
// instruction to Cycles.
func (m *Machine) Run(prog *Program, label string) (int64, error) {
	if prog != m.prog || m.Prof != m.prof || len(prog.Instrs) != m.checked {
		if err := prog.Resolve(); err != nil {
			return 0, err
		}
		m.prog, m.checked, m.entry, m.entryPC = prog, len(prog.Instrs), "", 0
		m.prof, m.cost = m.Prof, newCosts(m.Prof)
	}
	if label != m.entry {
		pc, err := prog.entry(label)
		if err != nil {
			return 0, err
		}
		m.entry, m.entryPC = label, pc
	}
	m.Fired = false
	code, at, tables, mem, regs, c := prog.Instrs, prog.at, prog.tables, m.Mem, &m.Regs, &m.cost
	pc, cyc, maxSteps := m.entryPC, int64(0), m.MaxSteps
	for steps := 1; ; steps++ {
		if steps > maxSteps {
			return m.fault(cyc, fmt.Errorf("vm: step limit exceeded in %s", prog.Name))
		}
		if pc < 0 || pc >= len(code) {
			return m.fault(cyc, fmt.Errorf("vm: pc %d out of range in %s", pc, prog.Name))
		}
		in := &code[pc]
		cyc += c.op[in.Op]
		pc++
		switch in.Op {
		case LDI:
			regs[in.Rd] = in.Imm
		case LD:
			if in.Addr < 0 || int(in.Addr) >= len(mem) {
				return m.fault(cyc, fmt.Errorf("vm: load address %d out of range", in.Addr))
			}
			regs[in.Rd] = mem[in.Addr]
		case ST:
			if in.Addr < 0 || int(in.Addr) >= len(mem) {
				return m.fault(cyc, fmt.Errorf("vm: store address %d out of range", in.Addr))
			}
			mem[in.Addr] = regs[in.Rs]
			if in.Fires {
				m.Fired = true
			}
		case MOV:
			regs[in.Rd] = regs[in.Rs]
		case ALU:
			cyc += c.alu[in.AOp]
			regs[in.Rd] = expr.EvalOp(in.AOp, regs[in.Rd], regs[in.Rs])
		case NEG:
			regs[in.Rd] = -regs[in.Rd]
		case NOT:
			if regs[in.Rd] == 0 {
				regs[in.Rd] = 1
			} else {
				regs[in.Rd] = 0
			}
		case BR:
			if in.Cond.Holds(regs[in.Rs], regs[in.Rt]) {
				cyc += c.taken
				pc = int(at[in.Label])
			}
		case BRZ:
			if regs[in.Rs] == 0 {
				cyc += c.taken
				pc = int(at[in.Label])
			}
		case BRNZ:
			if regs[in.Rs] != 0 {
				cyc += c.taken
				pc = int(at[in.Label])
			}
		case JMP:
			pc = int(at[in.Label])
		case JTAB:
			tab, idx := tables[in.Label], regs[in.Rs]
			if idx < 0 || idx >= int64(len(tab)) {
				return m.fault(cyc, fmt.Errorf("vm: jump table index %d out of range (%d entries)", idx, len(tab)))
			}
			cyc += c.perEntry * idx
			pc = int(at[tab[idx]])
		case SVC:
			switch in.Num {
			case SvcPresent:
				if m.Host.Present(int(in.Imm)) {
					regs[0] = 1
				} else {
					regs[0] = 0
				}
			case SvcValue:
				regs[0] = m.Host.Value(int(in.Imm))
			case SvcEmit:
				m.Host.Emit(int(in.Imm))
				if in.Fires {
					m.Fired = true
				}
			default:
				m.Host.EmitValue(int(in.Imm), regs[in.Rs])
				if in.Fires {
					m.Fired = true
				}
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
