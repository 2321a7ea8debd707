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
	Prof *Profile
	Regs [NumRegs]int64
	Mem  []int64
	Host Host

	// Cycles accumulates execution time across Run calls.
	Cycles int64
	// MaxSteps guards against runaway programs (default 1<<20).
	MaxSteps int

	// prog, entry and entryPC cache the program last run, its resolved
	// jump targets and its entry point, so repeated reactions of one
	// routine resolve labels only once.
	prog    *Program
	tgt     targets
	entry   string
	entryPC int
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
// this run. A program with an undefined label fails with a
// *LabelError before executing anything. Labels are resolved on the
// first run of a program on this machine and reused while it keeps its
// length; a program edited in place must be run on a fresh Machine.
func (m *Machine) Run(prog *Program, label string) (int64, error) {
	if prog != m.prog || len(prog.Instrs) != len(m.tgt.jump) {
		tgt, err := prog.resolveTargets()
		if err != nil {
			return 0, err
		}
		m.prog, m.tgt, m.entry, m.entryPC = prog, tgt, "", 0
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
	pc := m.entryPC
	jump, table := m.tgt.jump, m.tgt.table
	start := m.Cycles
	steps := 0
	for {
		if steps++; steps > m.MaxSteps {
			return 0, fmt.Errorf("vm: step limit exceeded in %s", prog.Name)
		}
		if pc < 0 || pc >= len(prog.Instrs) {
			return 0, fmt.Errorf("vm: pc %d out of range in %s", pc, prog.Name)
		}
		in := &prog.Instrs[pc]
		m.Cycles += int64(m.Prof.Cyc[in.Op])
		switch in.Op {
		case NOP:
			pc++
		case LDI:
			m.Regs[in.Rd] = in.Imm
			pc++
		case LD:
			if in.Addr < 0 || in.Addr >= len(m.Mem) {
				return 0, fmt.Errorf("vm: load address %d out of range", in.Addr)
			}
			m.Regs[in.Rd] = m.Mem[in.Addr]
			pc++
		case ST:
			if in.Addr < 0 || in.Addr >= len(m.Mem) {
				return 0, fmt.Errorf("vm: store address %d out of range", in.Addr)
			}
			m.Mem[in.Addr] = m.Regs[in.Rs]
			pc++
		case MOV:
			m.Regs[in.Rd] = m.Regs[in.Rs]
			pc++
		case ALU:
			// Replace the base ALU cost with the operator cost.
			m.Cycles += int64(m.Prof.ALUCycles(in.AOp) - m.Prof.Cyc[ALU])
			m.Regs[in.Rd] = aluEval(in.AOp, m.Regs[in.Rd], m.Regs[in.Rs])
			pc++
		case NEG:
			m.Regs[in.Rd] = -m.Regs[in.Rd]
			pc++
		case NOT:
			if m.Regs[in.Rd] == 0 {
				m.Regs[in.Rd] = 1
			} else {
				m.Regs[in.Rd] = 0
			}
			pc++
		case BR:
			if in.Cond.Holds(m.Regs[in.Rs], m.Regs[in.Rt]) {
				m.Cycles += int64(m.Prof.TakenExtra)
				pc = jump[pc]
			} else {
				pc++
			}
		case BRZ:
			if m.Regs[in.Rs] == 0 {
				m.Cycles += int64(m.Prof.TakenExtra)
				pc = jump[pc]
			} else {
				pc++
			}
		case BRNZ:
			if m.Regs[in.Rs] != 0 {
				m.Cycles += int64(m.Prof.TakenExtra)
				pc = jump[pc]
			} else {
				pc++
			}
		case JMP:
			pc = jump[pc]
		case JTAB:
			idx := m.Regs[in.Rs]
			if idx < 0 || int(idx) >= len(in.Table) {
				return 0, fmt.Errorf("vm: jump table index %d out of range (%d entries)", idx, len(in.Table))
			}
			m.Cycles += int64(m.Prof.JTabEntryCyc) * idx
			pc = table[jump[pc]+int(idx)]
		case SVC:
			switch in.Num {
			case SvcPresent:
				if m.Host.Present(int(in.Imm)) {
					m.Regs[0] = 1
				} else {
					m.Regs[0] = 0
				}
			case SvcValue:
				m.Regs[0] = m.Host.Value(int(in.Imm))
			case SvcEmit:
				m.Host.Emit(int(in.Imm))
			case SvcEmitV:
				m.Host.EmitValue(int(in.Imm), m.Regs[in.Rs])
			default:
				return 0, fmt.Errorf("vm: unknown service %d", in.Num)
			}
			pc++
		case HALT:
			return m.Cycles - start, nil
		default:
			return 0, fmt.Errorf("vm: bad opcode %d", in.Op)
		}
	}
}

// aluEval mirrors expr.Bin.Eval's semantics, including safe division.
func aluEval(op expr.Op, a, b int64) int64 {
	return expr.EvalOp(op, a, b)
}
