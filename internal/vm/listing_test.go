package vm

import (
	"errors"
	"strings"
	"testing"

	"polis/internal/expr"
)

// listingProgram exercises every opcode and every operand shape of the
// listing format: negative immediates, each branch condition, an empty
// and a populated jump table, co-located labels (listed in name
// order), a label past the last instruction, and comments.
func listingProgram() *Program {
	p := NewProgram("golden")
	p.Alloc("x")
	p.Alloc("y")
	mark := func(l string) {
		if err := p.Mark(l); err != nil {
			panic(err)
		}
	}
	mark("entry")
	mark("b_start")
	p.Emit(Instr{Op: NOP})
	p.Comment(p.Emit(Instr{Op: LDI, Rd: 1, Imm: -42}), "v3 init")
	p.Emit(Instr{Op: LDI, Rd: 12, Imm: 9223372036854775807})
	p.Emit(Instr{Op: LD, Rd: 2, Addr: 1})
	p.Emit(Instr{Op: ST, Addr: 0, Rs: 2})
	p.Emit(Instr{Op: MOV, Rd: 3, Rs: 1})
	p.Emit(Instr{Op: ALU, AOp: expr.OpAdd, Rd: 1, Rs: 2})
	p.Comment(p.Emit(Instr{Op: ALU, AOp: expr.OpMod, Rd: 4, Rs: 5}), "100% taken")
	p.Emit(Instr{Op: NEG, Rd: 1})
	p.Emit(Instr{Op: NOT, Rd: 7})
	mark("loop")
	for c := CondEQ; c <= CondGE; c++ {
		p.Emit(Instr{Op: BR, Cond: c, Rs: 1, Rt: 2, Label: p.Label("loop")})
	}
	p.Emit(Instr{Op: BRZ, Rs: 0, Label: p.Label("entry")})
	p.Emit(Instr{Op: BRNZ, Rs: 11, Label: p.Label("out")})
	p.Comment(p.Emit(Instr{Op: JMP, Label: p.Label("out")}), "v7 -> end")
	p.Emit(Instr{Op: JTAB, Rs: 3, Label: p.Table(p.Label("loop"), p.Label("entry"), p.Label("out"))})
	p.Emit(Instr{Op: JTAB, Rs: 4, Label: p.Table()})
	p.Emit(Instr{Op: SVC, Num: SvcPresent, Imm: 2, Rs: 0})
	p.Comment(p.Emit(Instr{Op: SVC, Num: SvcEmitV, Imm: -1, Rs: 6}), "emit %v")
	mark("z_mid")
	mark("a_mid")
	mark("m_mid")
	p.Emit(Instr{Op: HALT})
	mark("out")
	mark("end")
	return p
}

// TestListingGolden pins the listing format byte for byte. Every line
// of generated object code in the artifact cache and in the recorded
// golden outputs goes through this format.
func TestListingGolden(t *testing.T) {
	want := strings.Join([]string{
		"; routine golden (2 words of data)",
		"b_start:",
		"entry:",
		"  nop  ",
		"  ldi   r1, #-42  ; v3 init",
		"  ldi   r12, #9223372036854775807",
		"  ld    r2, [1]",
		"  st    [0], r2",
		"  mov   r3, r1",
		"  alu  .ADD r1, r2",
		"  alu  .MOD r4, r5  ; 100% taken",
		"  neg   r1",
		"  not   r7",
		"loop:",
		"  br   .eq r1, r2, loop",
		"  br   .ne r1, r2, loop",
		"  br   .lt r1, r2, loop",
		"  br   .le r1, r2, loop",
		"  br   .gt r1, r2, loop",
		"  br   .ge r1, r2, loop",
		"  brz   r0, entry",
		"  brnz  r11, out",
		"  jmp   out  ; v7 -> end",
		"  jtab  r3, [loop entry out]",
		"  jtab  r4, []",
		"  svc   #0, sig=2, r0",
		"  svc   #3, sig=-1, r6  ; emit %v",
		"a_mid:",
		"m_mid:",
		"z_mid:",
		"  halt ",
		"end:",
		"out:",
	}, "\n") + "\n"
	if got := listingProgram().Listing(); got != want {
		t.Errorf("listing changed:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

// TestNumberedLabels covers the labels of a numbered range: they list
// as the prefix and their number; labels bound at one position list in
// name order, whatever range they come from and whatever order they
// were bound in; LabelAt and Label find one by its name; and an
// unbound one is named in a *LabelError and a duplicate bind.
func TestNumberedLabels(t *testing.T) {
	p := NewProgram("m")
	if err := p.Mark("m_react"); err != nil {
		t.Fatal(err)
	}
	v := p.Labels("v", 12)
	for _, k := range []int32{9, 10, 0} {
		if err := p.Bind(v + k); err != nil {
			t.Fatal(err)
		}
	}
	p.Emit(Instr{Op: BRZ, Rs: 0, Label: v + 3})
	p.Emit(Instr{Op: JMP, Label: v + 11})
	if err := p.Bind(v + 3); err != nil {
		t.Fatal(err)
	}
	p.Emit(Instr{Op: HALT})
	var le *LabelError
	if err := p.Resolve(); !errors.As(err, &le) || le.Instr != 1 || le.Label != "v11" {
		t.Errorf("Resolve with v11 unbound: %v, want a LabelError for v11 at instr 1", err)
	}
	if err := p.Bind(v + 11); err != nil {
		t.Fatal(err)
	}
	p.Emit(Instr{Op: HALT})
	if err := p.Resolve(); err != nil {
		t.Fatal(err)
	}
	if err := p.Bind(v + 3); err == nil || !strings.Contains(err.Error(), `"v3"`) {
		t.Errorf("second bind of v3: %v, want a duplicate-label error naming v3", err)
	}

	want := strings.Join([]string{
		"; routine m (0 words of data)",
		"m_react:",
		"v0:",
		"v10:",
		"v9:",
		"  brz   r0, v3",
		"  jmp   v11",
		"v3:",
		"  halt ",
		"v11:",
		"  halt ",
		"",
	}, "\n")
	if got := p.Listing(); got != want {
		t.Errorf("listing:\n%s\nwant:\n%s", got, want)
	}

	for name, at := range map[string]int{"m_react": 0, "v0": 0, "v9": 0, "v3": 2, "v11": 3} {
		if got, ok := p.LabelAt(name); !ok || got != at {
			t.Errorf("LabelAt(%q) = %d, %v; want %d, true", name, got, ok, at)
		}
	}
	for _, name := range []string{"v5", "v12", "v03", "v", "v-1", "v+1", "w3"} {
		if at, ok := p.LabelAt(name); ok {
			t.Errorf("LabelAt(%q) = %d, true; want none", name, at)
		}
	}
	if got := p.Label("v3"); got != v+3 {
		t.Errorf(`Label("v3") = %d, want the range's label %d`, got, v+3)
	}
	if got, err := NewMachine(HC11(), 0, nil).Run(p, "m_react"); err != nil || got == 0 {
		t.Errorf("run from m_react: %d cycles, %v", got, err)
	}
}
