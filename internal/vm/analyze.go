package vm

import "fmt"

// PathCycles is the result of static object-code timing analysis: the
// exact minimum and maximum cycles of any execution path. This is the
// "measurement by analysing the compiled object code" the paper uses
// for the timing column of Table I, applied to the virtual target.
type PathCycles struct {
	Min int64
	Max int64
}

// AnalyzeCycles computes the minimum and maximum cycle counts over all
// paths from the entry label to any HALT, by shortest/longest path
// over the instruction control-flow graph. The routine must be acyclic
// (s-graph generated code is); a cycle is reported as an error. Every
// instruction on a path is decoded as Run decodes it, so a malformed
// one fails with the same *DecodeError (or *LabelError) instead of
// being costed.
func AnalyzeCycles(prof *Profile, prog *Program, label string) (PathCycles, error) {
	entry := 0
	if label != "" {
		idx, ok := prog.Labels[label]
		if !ok {
			return PathCycles{}, fmt.Errorf("vm: unknown entry label %q", label)
		}
		entry = idx
	}
	// One memo entry per instruction, indexed by pc.
	type memoEnt struct {
		min, max int64
		done     bool
		onStack  bool
	}
	memo := make([]memoEnt, len(prog.Instrs))

	var visit func(pc int) (int64, int64, error)
	visit = func(pc int) (int64, int64, error) {
		if pc < 0 || pc >= len(prog.Instrs) {
			return 0, 0, fmt.Errorf("vm: pc %d out of range", pc)
		}
		e := &memo[pc]
		if e.done {
			return e.min, e.max, nil
		}
		if e.onStack {
			return 0, 0, fmt.Errorf("vm: cycle in control flow at instruction %d", pc)
		}
		if err := prog.check(pc); err != nil {
			return 0, 0, err
		}
		e.onStack = true
		mn, mx, err := visitInstr(prof, prog, pc, visit)
		e.onStack = false
		if err != nil {
			return 0, 0, err
		}
		*e = memoEnt{min: mn, max: mx, done: true}
		return mn, mx, nil
	}
	mn, mx, err := visit(entry)
	if err != nil {
		return PathCycles{}, err
	}
	return PathCycles{Min: mn, Max: mx}, nil
}

// visitInstr returns the cycle bounds from the checked instruction at
// pc to a HALT, through visit for its successors.
func visitInstr(prof *Profile, prog *Program, pc int, visit func(int) (int64, int64, error)) (mn, mx int64, err error) {
	in := &prog.Instrs[pc]
	base := int64(prof.Cyc[in.Op])
	switch in.Op {
	case HALT:
		return base, base, nil
	case JMP:
		t, err := prog.target(pc, in.Label)
		if err != nil {
			return 0, 0, err
		}
		m1, m2, err := visit(t)
		if err != nil {
			return 0, 0, err
		}
		return base + m1, base + m2, nil
	case BR, BRZ, BRNZ:
		t, err := prog.target(pc, in.Label)
		if err != nil {
			return 0, 0, err
		}
		tMin, tMax, err := visit(t)
		if err != nil {
			return 0, 0, err
		}
		fMin, fMax, err := visit(pc + 1)
		if err != nil {
			return 0, 0, err
		}
		taken := base + int64(prof.TakenExtra)
		return min64(taken+tMin, base+fMin), max64(taken+tMax, base+fMax), nil
	case JTAB:
		for idx, l := range in.Table {
			t, err := prog.target(pc, l)
			if err != nil {
				return 0, 0, err
			}
			m1, m2, err := visit(t)
			if err != nil {
				return 0, 0, err
			}
			disp := base + int64(prof.JTabEntryCyc)*int64(idx)
			if idx == 0 {
				mn, mx = disp+m1, disp+m2
				continue
			}
			mn = min64(mn, disp+m1)
			mx = max64(mx, disp+m2)
		}
		return mn, mx, nil
	case ALU:
		base = int64(prof.ALUCycles(in.AOp))
	}
	m1, m2, err := visit(pc + 1)
	if err != nil {
		return 0, 0, err
	}
	return base + m1, base + m2, nil
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
