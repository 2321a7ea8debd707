package vm

import (
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"polis/internal/expr"
)

// TestDecodeErrors runs hand-built malformed programs: each must fail
// the check with a *DecodeError naming the bad instruction, before any
// cycle is spent or any service called, and static cycle analysis must
// reject it with the same error rather than panic or cost it.
func TestDecodeErrors(t *testing.T) {
	// Each row's program interns "end" first (label 0), then adds the
	// jump tables [end] (table 0) and [] (table 2).
	const end, endTable, emptyTable = 0, 0, 2
	for _, tc := range []struct {
		name string
		bad  Instr
	}{
		{"opcode out of range", Instr{Op: numOpcodes}},
		{"opcode max", Instr{Op: 255}},
		{"destination register", Instr{Op: LDI, Rd: NumRegs + 1, Imm: 1}},
		{"negative register", Instr{Op: MOV, Rd: 1, Rs: -1}},
		{"load register", Instr{Op: LD, Rd: NumRegs, Addr: 0}},
		{"store source register", Instr{Op: ST, Rs: 9, Addr: 0}},
		{"branch register", Instr{Op: BR, Cond: CondLT, Rs: 1, Rt: 8, Label: end}},
		{"branch condition", Instr{Op: BR, Cond: CondGE + 1, Rs: 1, Rt: 2, Label: end}},
		{"jump table register", Instr{Op: JTAB, Rs: 10, Label: endTable}},
		{"emitted value register", Instr{Op: SVC, Num: SvcEmitV, Rs: 8}},
		{"ALU operator", Instr{Op: ALU, AOp: expr.Op(expr.NumOps()), Rd: 1, Rs: 2}},
		{"negative ALU operator", Instr{Op: ALU, AOp: 0xff, Rd: 1, Rs: 2}}, // -1 as a byte
		{"unknown service", Instr{Op: SVC, Num: SvcEmitV + 1}},
		{"negative service", Instr{Op: SVC, Num: -1}},
		{"empty jump table", Instr{Op: JTAB, Rs: 1, Label: emptyTable}},
		{"missing jump table", Instr{Op: JTAB, Rs: 1, Label: emptyTable + 1}},
		{"fires on a load", Instr{Op: LD, Rd: 1, Fires: true}},
		{"fires on a presence test", Instr{Op: SVC, Num: SvcPresent, Fires: true}},
		{"fires on a jump", Instr{Op: JMP, Label: end, Fires: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := NewProgram("bad")
			p.Table(p.Label("end"))
			p.Table()
			p.Alloc("x")
			p.Emit(Instr{Op: SVC, Num: SvcEmit, Imm: 0})
			p.Emit(tc.bad)
			if err := p.Mark("end"); err != nil {
				t.Fatal(err)
			}
			p.Emit(Instr{Op: HALT})

			var de *DecodeError
			if err := p.Resolve(); !errors.As(err, &de) || de.Instr != 1 {
				t.Errorf("Resolve error %v, want a DecodeError for instr 1", err)
			}
			h := newRecHost()
			m := NewMachine(HC11(), p.Words, h)
			if _, err := m.Run(p, ""); !errors.As(err, &de) || de.Instr != 1 || de.Reason == "" {
				t.Errorf("Run error %v, want a DecodeError for instr 1", err)
			}
			if m.Cycles != 0 || len(h.emitted) != 0 {
				t.Errorf("Run spent %d cycles and made %d emissions before failing", m.Cycles, len(h.emitted))
			}
			for _, prof := range []*Profile{HC11(), R3K()} {
				de = nil
				if _, err := AnalyzeCycles(prof, p, ""); !errors.As(err, &de) || de.Instr != 1 || de.Reason == "" {
					t.Errorf("AnalyzeCycles(%s) error %v, want a DecodeError for instr 1", prof.Name, err)
				}
			}
		})
	}
}

// TestUnusedOperandsAreNotDecoded keeps the check to the fields an
// opcode uses: a register field an instruction ignores may hold
// anything.
func TestUnusedOperandsAreNotDecoded(t *testing.T) {
	p := NewProgram("loose")
	p.Emit(Instr{Op: SVC, Num: SvcPresent, Rs: 99})
	p.Emit(Instr{Op: JMP, Rd: 42, Rs: -3, Label: p.Label("end")})
	if err := p.Mark("end"); err != nil {
		t.Fatal(err)
	}
	p.Emit(Instr{Op: HALT, Rd: 100})
	if _, err := NewMachine(R3K(), 0, nil).Run(p, ""); err != nil {
		t.Fatal(err)
	}
}

// TestRunFired checks the fired flag: set by a marked store or
// emission that executes, untouched by unmarked ones and by marked
// instructions branched around, and reset by every run.
func TestRunFired(t *testing.T) {
	p := NewProgram("fired")
	x := p.Alloc("x")
	p.Emit(Instr{Op: ST, Addr: x, Rs: 1})        // unmarked effect
	p.Emit(Instr{Op: SVC, Num: SvcEmit, Imm: 0}) // unmarked effect
	p.Emit(Instr{Op: BRZ, Rs: 2, Label: p.Label("end")})
	p.Emit(Instr{Op: LDI, Rd: 3, Imm: 7})
	p.Emit(Instr{Op: BRNZ, Rs: 3, Label: p.Label("emit")})
	p.Emit(Instr{Op: ST, Addr: x, Rs: 3, Fires: true})
	p.Emit(Instr{Op: JMP, Label: p.Label("end")})
	if err := p.Mark("emit"); err != nil {
		t.Fatal(err)
	}
	p.Emit(Instr{Op: SVC, Num: SvcEmitV, Imm: 1, Rs: 3, Fires: true})
	if err := p.Mark("end"); err != nil {
		t.Fatal(err)
	}
	p.Emit(Instr{Op: HALT})
	m := NewMachine(HC11(), p.Words, nil)
	for _, tc := range []struct {
		r2    int64
		fired bool
	}{{1, true}, {0, false}, {5, true}, {0, false}} {
		m.Regs[2] = tc.r2
		if _, err := m.Run(p, ""); err != nil {
			t.Fatal(err)
		}
		if m.Fired != tc.fired {
			t.Errorf("r2=%d: Fired = %v, want %v", tc.r2, m.Fired, tc.fired)
		}
	}
}

// TestProfileSwapRecosts charges a new profile's costs after Prof is
// replaced between runs of one program.
func TestProfileSwapRecosts(t *testing.T) {
	p := NewProgram("swap")
	p.Emit(Instr{Op: ALU, AOp: expr.OpMul, Rd: 1, Rs: 2})
	p.Emit(Instr{Op: HALT})
	m := NewMachine(HC11(), 0, nil)
	for _, prof := range []*Profile{HC11(), R3K(), HC11()} {
		m.Prof = prof
		got, err := m.Run(p, "")
		if err != nil {
			t.Fatal(err)
		}
		if want := int64(prof.ALUCycles(expr.OpMul) + prof.Cyc[HALT]); got != want {
			t.Errorf("%s: %d cycles, want %d", prof.Name, got, want)
		}
	}
}

// TestFaultKeepsCycles pins the cycle accounting of a run that faults:
// the cycles up to and including the faulting instruction are added to
// Cycles.
func TestFaultKeepsCycles(t *testing.T) {
	prof := HC11()
	p := NewProgram("fault")
	p.Emit(Instr{Op: LDI, Rd: 1, Imm: 3})
	p.Emit(Instr{Op: LD, Rd: 2, Addr: 5})
	p.Emit(Instr{Op: HALT})
	m := NewMachine(prof, 1, nil)
	if _, err := m.Run(p, ""); err == nil {
		t.Fatal("load past memory must fail")
	}
	if want := int64(prof.Cyc[LDI] + prof.Cyc[LD]); m.Cycles != want {
		t.Errorf("Cycles = %d after the fault, want %d", m.Cycles, want)
	}
}

// TestInstrSize pins the one instruction representation: a value of
// 24 bytes with no field that points elsewhere, so a routine's code is
// one flat slice the garbage collector does not scan.
func TestInstrSize(t *testing.T) {
	typ := reflect.TypeOf(Instr{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.String, reflect.Slice, reflect.Map, reflect.Pointer, reflect.Interface,
			reflect.Chan, reflect.Func, reflect.UnsafePointer:
			t.Errorf("Instr.%s is a %s", f.Name, f.Type.Kind())
		}
	}
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes are pinned for 64-bit targets")
	}
	if got := unsafe.Sizeof(Instr{}); got != 24 {
		t.Errorf("Instr is %d bytes, want 24", got)
	}
}
