package vm

import (
	"fmt"
	"math/rand"
	"testing"

	"polis/internal/expr"
)

// randHost answers presence/value queries pseudo-randomly but
// deterministically per seed.
type randHost struct{ r *rand.Rand }

func (h *randHost) Present(sig int) bool { return h.r.Intn(2) == 1 }
func (h *randHost) Value(sig int) int64  { return h.r.Int63n(8) }
func (h *randHost) Emit(int)             {}
func (h *randHost) EmitValue(int, int64) {}

// randomDAGProgram generates a random forward-branching (acyclic)
// program: branches and jump tables only ever target later labels.
func randomDAGProgram(r *rand.Rand) *Program {
	p := NewProgram("fuzz")
	for i := 0; i < 4; i++ {
		p.Alloc(fmt.Sprintf("w%d", i))
	}
	nBlocks := 3 + r.Intn(6)
	label := func(i int) int32 { return p.Label(fmt.Sprintf("b%d", i)) }
	reg := func() int8 { return int8(1 + r.Intn(3)) }
	for b := 0; b < nBlocks; b++ {
		_ = p.Bind(label(b))
		// A few straight-line instructions.
		for k := 0; k < r.Intn(4); k++ {
			switch r.Intn(6) {
			case 0:
				p.Emit(Instr{Op: LDI, Rd: reg(), Imm: r.Int63n(16)})
			case 1:
				p.Emit(Instr{Op: LD, Rd: reg(), Addr: int32(r.Intn(4))})
			case 2:
				p.Emit(Instr{Op: ST, Addr: int32(r.Intn(4)), Rs: reg()})
			case 3:
				ops := []expr.Op{expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpDiv, expr.OpMin}
				p.Emit(Instr{Op: ALU, AOp: ops[r.Intn(len(ops))], Rd: reg(), Rs: reg()})
			case 4:
				p.Emit(Instr{Op: SVC, Num: SvcPresent, Imm: int64(r.Intn(3))})
			default:
				p.Emit(Instr{Op: MOV, Rd: reg(), Rs: int8(r.Intn(4))})
			}
		}
		// Terminator: fall through, forward branch, forward jump
		// table, or halt.
		if b == nBlocks-1 {
			p.Emit(Instr{Op: HALT})
			break
		}
		switch r.Intn(4) {
		case 0:
			// fall through
		case 1:
			tgt := b + 1 + r.Intn(nBlocks-b-1)
			p.Emit(Instr{Op: SVC, Num: SvcPresent, Imm: 0})
			p.Emit(Instr{Op: BRNZ, Rs: 0, Label: label(tgt)})
		case 2:
			tgt := b + 1 + r.Intn(nBlocks-b-1)
			p.Emit(Instr{Op: JMP, Label: label(tgt)})
		default:
			// Jump table over 2-3 forward targets, indexed by a
			// freshly bounded register.
			n := 2 + r.Intn(2)
			table := make([]int32, n)
			for i := range table {
				table[i] = label(b + 1 + r.Intn(nBlocks-b-1))
			}
			p.Emit(Instr{Op: SVC, Num: SvcValue, Imm: 0}) // r0 in [0,8)
			p.Emit(Instr{Op: LDI, Rd: 1, Imm: int64(n - 1)})
			p.Emit(Instr{Op: ALU, AOp: expr.OpMin, Rd: 1, Rs: 0})
			// rd = min(n-1, r0) could leave r1 = r0 when small; either
			// way the index is within [0, n).
			p.Emit(Instr{Op: MOV, Rd: 2, Rs: 1})
			p.Emit(Instr{Op: JTAB, Rs: 2, Label: p.Table(table...)})
		}
	}
	if err := p.Resolve(); err != nil {
		panic(err)
	}
	return p
}

// TestAnalyzeBoundsExecution: for random acyclic programs and random
// environments, every concrete execution's cycle count lies within the
// static [Min, Max] bounds.
func TestAnalyzeBoundsExecution(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	programs := 80
	if testing.Short() {
		programs = 20
	}
	for pi := 0; pi < programs; pi++ {
		p := randomDAGProgram(rng)
		for _, prof := range []*Profile{HC11(), R3K()} {
			pc, err := AnalyzeCycles(prof, p, "")
			if err != nil {
				t.Fatalf("program %d: %v\n%s", pi, err, p.Listing())
			}
			if pc.Min > pc.Max {
				t.Fatalf("program %d: min %d > max %d", pi, pc.Min, pc.Max)
			}
			for run := 0; run < 10; run++ {
				m := NewMachine(prof, p.Words, &randHost{r: rand.New(rand.NewSource(int64(pi*100 + run)))})
				got, err := m.Run(p, "")
				if err != nil {
					t.Fatalf("program %d run %d: %v\n%s", pi, run, err, p.Listing())
				}
				if got < pc.Min || got > pc.Max {
					t.Fatalf("program %d run %d: %d cycles outside [%d, %d]\n%s",
						pi, run, got, pc.Min, pc.Max, p.Listing())
				}
			}
		}
	}
}

// TestLayoutMonotone: adding instructions never shrinks the code.
func TestLayoutMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		p := randomDAGProgram(rng)
		prof := HC11()
		before := prof.CodeSize(p)
		p.Instrs = append(p.Instrs, Instr{Op: NOP}, Instr{Op: HALT})
		after := prof.CodeSize(p)
		if after <= before {
			t.Fatalf("adding instructions shrank the program: %d -> %d", before, after)
		}
	}
}
