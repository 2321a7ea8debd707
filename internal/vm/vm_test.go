package vm

import (
	"errors"
	"strings"
	"testing"

	"polis/internal/expr"
)

func TestStraightLine(t *testing.T) {
	p := NewProgram("t")
	x := p.Alloc("x")
	y := p.Alloc("y")
	p.Emit(Instr{Op: LDI, Rd: 1, Imm: 40})
	p.Emit(Instr{Op: LDI, Rd: 2, Imm: 2})
	p.Emit(Instr{Op: ALU, AOp: expr.OpAdd, Rd: 1, Rs: 2})
	p.Emit(Instr{Op: ST, Addr: x, Rs: 1})
	p.Emit(Instr{Op: LD, Rd: 3, Addr: x})
	p.Emit(Instr{Op: ST, Addr: y, Rs: 3})
	p.Emit(Instr{Op: HALT})
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	m := NewMachine(HC11(), p.Words, nil)
	cycles, err := m.Run(p, "")
	if err != nil {
		t.Fatal(err)
	}
	if m.Mem[y] != 42 {
		t.Errorf("y = %d, want 42", m.Mem[y])
	}
	// 2+2 (ldi) + 7 (add) + 4+4+4 (st/ld/st) + 2 (halt) = 25
	if cycles != 25 {
		t.Errorf("cycles = %d, want 25", cycles)
	}
}

func TestBranching(t *testing.T) {
	p := NewProgram("b")
	p.Emit(Instr{Op: LDI, Rd: 1, Imm: 5})
	p.Emit(Instr{Op: LDI, Rd: 2, Imm: 5})
	p.Emit(Instr{Op: BR, Cond: CondEQ, Rs: 1, Rt: 2, Label: p.Label("eq")})
	p.Emit(Instr{Op: LDI, Rd: 0, Imm: 0})
	p.Emit(Instr{Op: HALT})
	if err := p.Mark("eq"); err != nil {
		t.Fatal(err)
	}
	p.Emit(Instr{Op: LDI, Rd: 0, Imm: 1})
	p.Emit(Instr{Op: HALT})
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	m := NewMachine(R3K(), 0, nil)
	if _, err := m.Run(p, ""); err != nil {
		t.Fatal(err)
	}
	if m.Regs[0] != 1 {
		t.Errorf("taken branch not taken: r0=%d", m.Regs[0])
	}
}

func TestConds(t *testing.T) {
	cases := []struct {
		c       Cond
		a, b    int64
		expects bool
	}{
		{CondEQ, 3, 3, true}, {CondEQ, 3, 4, false},
		{CondNE, 3, 4, true}, {CondNE, 4, 4, false},
		{CondLT, 2, 3, true}, {CondLT, 3, 3, false},
		{CondLE, 3, 3, true}, {CondLE, 4, 3, false},
		{CondGT, 4, 3, true}, {CondGT, 3, 3, false},
		{CondGE, 3, 3, true}, {CondGE, 2, 3, false},
	}
	for _, c := range cases {
		if got := c.c.Holds(c.a, c.b); got != c.expects {
			t.Errorf("%v(%d,%d) = %v", c.c, c.a, c.b, got)
		}
	}
}

func TestJumpTable(t *testing.T) {
	p := NewProgram("jt")
	p.Emit(Instr{Op: JTAB, Rs: 1, Label: p.Table(p.Label("l0"), p.Label("l1"), p.Label("l2"))})
	for i := 0; i < 3; i++ {
		if err := p.Mark([]string{"l0", "l1", "l2"}[i]); err != nil {
			t.Fatal(err)
		}
		p.Emit(Instr{Op: LDI, Rd: 0, Imm: int64(10 + i)})
		p.Emit(Instr{Op: HALT})
	}
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	for idx := int64(0); idx < 3; idx++ {
		m := NewMachine(HC11(), 0, nil)
		m.Regs[1] = idx
		if _, err := m.Run(p, ""); err != nil {
			t.Fatal(err)
		}
		if m.Regs[0] != 10+idx {
			t.Errorf("jtab[%d]: r0=%d", idx, m.Regs[0])
		}
	}
	// Out of range must error.
	m := NewMachine(HC11(), 0, nil)
	m.Regs[1] = 9
	if _, err := m.Run(p, ""); err == nil {
		t.Error("out-of-range jump table index must fail")
	}
}

type recHost struct {
	present map[int]bool
	values  map[int]int64
	emitted []int
	emitsV  map[int]int64
}

func newRecHost() *recHost {
	return &recHost{
		present: map[int]bool{},
		values:  map[int]int64{},
		emitsV:  map[int]int64{},
	}
}
func (h *recHost) Present(s int) bool       { return h.present[s] }
func (h *recHost) Value(s int) int64        { return h.values[s] }
func (h *recHost) Emit(s int)               { h.emitted = append(h.emitted, s) }
func (h *recHost) EmitValue(s int, v int64) { h.emitted = append(h.emitted, s); h.emitsV[s] = v }

func TestSVC(t *testing.T) {
	p := NewProgram("svc")
	p.Emit(Instr{Op: SVC, Num: SvcPresent, Imm: 3})
	p.Emit(Instr{Op: BRZ, Rs: 0, Label: p.Label("out")})
	p.Emit(Instr{Op: SVC, Num: SvcValue, Imm: 3})
	p.Emit(Instr{Op: MOV, Rd: 1, Rs: 0})
	p.Emit(Instr{Op: SVC, Num: SvcEmitV, Imm: 7, Rs: 1})
	if err := p.Mark("out"); err != nil {
		t.Fatal(err)
	}
	p.Emit(Instr{Op: HALT})
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	h := newRecHost()
	h.present[3] = true
	h.values[3] = 99
	m := NewMachine(HC11(), 0, h)
	if _, err := m.Run(p, ""); err != nil {
		t.Fatal(err)
	}
	if len(h.emitted) != 1 || h.emitted[0] != 7 || h.emitsV[7] != 99 {
		t.Errorf("svc emission wrong: %+v", h)
	}
	// Absent event: skip.
	h2 := newRecHost()
	m2 := NewMachine(HC11(), 0, h2)
	if _, err := m2.Run(p, ""); err != nil {
		t.Fatal(err)
	}
	if len(h2.emitted) != 0 {
		t.Error("must not emit when absent")
	}
}

func TestSafeDivisionInALU(t *testing.T) {
	p := NewProgram("div")
	p.Emit(Instr{Op: LDI, Rd: 1, Imm: 10})
	p.Emit(Instr{Op: LDI, Rd: 2, Imm: 0})
	p.Emit(Instr{Op: ALU, AOp: expr.OpDiv, Rd: 1, Rs: 2})
	p.Emit(Instr{Op: HALT})
	m := NewMachine(R3K(), 0, nil)
	if _, err := m.Run(p, ""); err != nil {
		t.Fatal(err)
	}
	if m.Regs[1] != 0 {
		t.Errorf("10/0 must be 0 (safe), got %d", m.Regs[1])
	}
}

func TestAnalyzeCyclesMatchesExecution(t *testing.T) {
	// Two-path program: measure both paths by running, compare with
	// static analysis.
	p := NewProgram("two")
	p.Emit(Instr{Op: SVC, Num: SvcPresent, Imm: 0})
	p.Emit(Instr{Op: BRZ, Rs: 0, Label: p.Label("skip")})
	p.Emit(Instr{Op: LDI, Rd: 1, Imm: 1})
	p.Emit(Instr{Op: ALU, AOp: expr.OpMul, Rd: 1, Rs: 1})
	p.Emit(Instr{Op: SVC, Num: SvcEmit, Imm: 1})
	if err := p.Mark("skip"); err != nil {
		t.Fatal(err)
	}
	p.Emit(Instr{Op: HALT})
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	prof := HC11()
	pc, err := AnalyzeCycles(prof, p, "")
	if err != nil {
		t.Fatal(err)
	}
	// Execute the short path.
	h := newRecHost()
	m := NewMachine(prof, 0, h)
	shortCycles, err := m.Run(p, "")
	if err != nil {
		t.Fatal(err)
	}
	// Execute the long path.
	h.present[0] = true
	m2 := NewMachine(prof, 0, h)
	longCycles, err := m2.Run(p, "")
	if err != nil {
		t.Fatal(err)
	}
	if pc.Min != shortCycles {
		t.Errorf("static min %d vs executed %d", pc.Min, shortCycles)
	}
	if pc.Max != longCycles {
		t.Errorf("static max %d vs executed %d", pc.Max, longCycles)
	}
}

func TestAnalyzeDetectsLoop(t *testing.T) {
	p := NewProgram("loop")
	if err := p.Mark("top"); err != nil {
		t.Fatal(err)
	}
	p.Emit(Instr{Op: JMP, Label: p.Label("top")})
	if _, err := AnalyzeCycles(HC11(), p, ""); err == nil {
		t.Error("loop must be detected")
	}
}

func TestLayoutShortBranches(t *testing.T) {
	prof := HC11()
	p := NewProgram("near")
	p.Emit(Instr{Op: BRZ, Rs: 0, Label: p.Label("end")})
	p.Emit(Instr{Op: NOP})
	if err := p.Mark("end"); err != nil {
		t.Fatal(err)
	}
	p.Emit(Instr{Op: HALT})
	size := prof.CodeSize(p)
	// short branch (2) + nop (1) + halt (1) = 4
	if size != 4 {
		t.Errorf("near-branch size = %d, want 4", size)
	}

	// Far branch: pad beyond the short range.
	p2 := NewProgram("far")
	p2.Emit(Instr{Op: BRZ, Rs: 0, Label: p2.Label("end")})
	for i := 0; i < 200; i++ {
		p2.Emit(Instr{Op: NOP})
	}
	if err := p2.Mark("end"); err != nil {
		t.Fatal(err)
	}
	p2.Emit(Instr{Op: HALT})
	size2 := prof.CodeSize(p2)
	// long branch (3) + 200 nops + halt
	if size2 != 3+200+1 {
		t.Errorf("far-branch size = %d, want 204", size2)
	}
}

func TestR3KUniformSize(t *testing.T) {
	prof := R3K()
	p := NewProgram("u")
	p.Emit(Instr{Op: LDI, Rd: 0, Imm: 1})
	p.Emit(Instr{Op: BRZ, Rs: 0, Label: p.Label("x")})
	if err := p.Mark("x"); err != nil {
		t.Fatal(err)
	}
	p.Emit(Instr{Op: HALT})
	if got := prof.CodeSize(p); got != 12 {
		t.Errorf("R3K size = %d, want 12", got)
	}
}

func TestResolveCatchesUndefined(t *testing.T) {
	p := NewProgram("bad")
	p.Emit(Instr{Op: JMP, Label: p.Label("nowhere")})
	if err := p.Resolve(); err == nil {
		t.Error("undefined label must be reported")
	}
}

// TestDanglingLabel: a branch to an unbound label, or to an index that
// names no label, must fail Run and AnalyzeCycles with a *LabelError,
// and Run must do so before executing anything.
func TestDanglingLabel(t *testing.T) {
	progs := map[string]func(p *Program){
		"jmp": func(p *Program) { p.Emit(Instr{Op: JMP, Label: p.Label("nowhere")}) },
		"brz": func(p *Program) { p.Emit(Instr{Op: BRZ, Rs: 1, Label: p.Label("nowhere")}) },
		"jtab": func(p *Program) {
			p.Emit(Instr{Op: JTAB, Rs: 1, Label: p.Table(p.Label("end"), p.Label("nowhere"))})
		},
		"index": func(p *Program) { p.Emit(Instr{Op: BR, Rs: 1, Rt: 2, Label: 99}) },
	}
	for name, branch := range progs {
		p := NewProgram(name)
		p.Emit(Instr{Op: SVC, Num: SvcEmit, Imm: 7})
		branch(p)
		if err := p.Mark("end"); err != nil {
			t.Fatal(err)
		}
		p.Emit(Instr{Op: HALT})
		h := &recHost{}
		m := NewMachine(HC11(), 0, h)
		_, err := m.Run(p, "")
		want := "nowhere"
		if name == "index" {
			want = ""
		}
		var le *LabelError
		if !errors.As(err, &le) || le.Label != want || le.Instr != 1 {
			t.Errorf("%s: Run error %v, want a LabelError for instr 1", name, err)
		}
		if m.Cycles != 0 || len(h.emitted) != 0 {
			t.Errorf("%s: Run executed %d cycles and %d emissions before failing", name, m.Cycles, len(h.emitted))
		}
		if _, err := AnalyzeCycles(HC11(), p, ""); !errors.As(err, &le) {
			t.Errorf("%s: AnalyzeCycles error %v, want a LabelError", name, err)
		}
		if err := p.Resolve(); !errors.As(err, &le) {
			t.Errorf("%s: Resolve error %v, want a LabelError", name, err)
		}
	}
}

func TestAllocDedup(t *testing.T) {
	p := NewProgram("a")
	a1 := p.Alloc("x")
	a2 := p.Alloc("x")
	a3 := p.Alloc("y")
	if a1 != a2 || a1 == a3 || p.Words != 2 {
		t.Errorf("alloc: %d %d %d words=%d", a1, a2, a3, p.Words)
	}
}

func TestListing(t *testing.T) {
	p := NewProgram("l")
	p.Comment(p.Emit(Instr{Op: LDI, Rd: 1, Imm: 3}), "init")
	p.Emit(Instr{Op: HALT})
	lst := p.Listing()
	if !strings.Contains(lst, "ldi") || !strings.Contains(lst, "init") {
		t.Errorf("listing malformed:\n%s", lst)
	}
}

func TestStepLimit(t *testing.T) {
	p := NewProgram("inf")
	if err := p.Mark("top"); err != nil {
		t.Fatal(err)
	}
	p.Emit(Instr{Op: JMP, Label: p.Label("top")})
	m := NewMachine(R3K(), 0, nil)
	m.MaxSteps = 100
	if _, err := m.Run(p, ""); err == nil {
		t.Error("step limit must trigger")
	}
}

// TestRunSwitchesProgramsAndEntries: one machine alternating between
// programs and entry labels resolves each afresh, never reusing the
// previous program's targets or entry point.
func TestRunSwitchesProgramsAndEntries(t *testing.T) {
	build := func(name string, a, b int64) *Program {
		p := NewProgram(name)
		p.Emit(Instr{Op: LDI, Rd: 0, Imm: 0})
		p.Emit(Instr{Op: JMP, Label: p.Label("out")})
		if err := p.Mark("a"); err != nil {
			t.Fatal(err)
		}
		p.Emit(Instr{Op: LDI, Rd: 0, Imm: a})
		p.Emit(Instr{Op: JMP, Label: p.Label("out")})
		if err := p.Mark("b"); err != nil {
			t.Fatal(err)
		}
		p.Emit(Instr{Op: LDI, Rd: 0, Imm: b})
		if err := p.Mark("out"); err != nil {
			t.Fatal(err)
		}
		p.Emit(Instr{Op: HALT})
		return p
	}
	p1, p2 := build("p1", 1, 2), build("p2", 3, 4)
	m := NewMachine(R3K(), 0, nil)
	for _, c := range []struct {
		p     *Program
		label string
		want  int64
	}{
		{p1, "a", 1}, {p1, "b", 2}, {p1, "", 0}, {p2, "b", 4}, {p2, "a", 3}, {p1, "a", 1},
	} {
		if _, err := m.Run(c.p, c.label); err != nil {
			t.Fatal(err)
		}
		if m.Regs[0] != c.want {
			t.Errorf("%s from %q: r0 = %d, want %d", c.p.Name, c.label, m.Regs[0], c.want)
		}
	}
	if _, err := m.Run(p1, "missing"); err == nil {
		t.Error("unknown entry label must be reported")
	}
}
