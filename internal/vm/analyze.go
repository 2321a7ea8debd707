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
// (s-graph generated code is); a cycle is reported as an error.
func AnalyzeCycles(prof *Profile, prog *Program, label string) (PathCycles, error) {
	entry := 0
	if label != "" {
		idx, ok := prog.Labels[label]
		if !ok {
			return PathCycles{}, fmt.Errorf("vm: unknown entry label %q", label)
		}
		entry = idx
	}
	type memoEnt struct {
		min, max int64
		done     bool
	}
	memo := make(map[int]*memoEnt)
	onStack := make(map[int]bool)

	var visit func(pc int) (int64, int64, error)
	visit = func(pc int) (int64, int64, error) {
		if pc < 0 || pc >= len(prog.Instrs) {
			return 0, 0, fmt.Errorf("vm: pc %d out of range", pc)
		}
		if e, ok := memo[pc]; ok && e.done {
			return e.min, e.max, nil
		}
		if onStack[pc] {
			return 0, 0, fmt.Errorf("vm: cycle in control flow at instruction %d", pc)
		}
		onStack[pc] = true
		defer delete(onStack, pc)

		in := &prog.Instrs[pc]
		base := int64(prof.Cyc[in.Op])
		var mn, mx int64
		switch in.Op {
		case HALT:
			mn, mx = base, base
		case JMP:
			t, err := prog.target(pc, in.Label)
			if err != nil {
				return 0, 0, err
			}
			m1, m2, err := visit(t)
			if err != nil {
				return 0, 0, err
			}
			mn, mx = base+m1, base+m2
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
			taken := base + int64(prof.TakenExtra) + tMin
			fall := base + fMin
			mn = min64(taken, fall)
			mx = max64(base+int64(prof.TakenExtra)+tMax, base+fMax)
		case JTAB:
			first := true
			for idx, l := range in.Table {
				t, err := prog.target(pc, l)
				if err != nil {
					return 0, 0, err
				}
				m1, m2, err := visit(t)
				if err != nil {
					return 0, 0, err
				}
				disp := int64(prof.JTabEntryCyc) * int64(idx)
				if first {
					mn, mx = base+disp+m1, base+disp+m2
					first = false
					continue
				}
				mn = min64(mn, base+disp+m1)
				mx = max64(mx, base+disp+m2)
			}
			if first {
				return 0, 0, fmt.Errorf("vm: empty jump table at %d", pc)
			}
		case ALU:
			c := int64(prof.ALUCycles(in.AOp))
			m1, m2, err := visit(pc + 1)
			if err != nil {
				return 0, 0, err
			}
			mn, mx = c+m1, c+m2
		default:
			m1, m2, err := visit(pc + 1)
			if err != nil {
				return 0, 0, err
			}
			mn, mx = base+m1, base+m2
		}
		memo[pc] = &memoEnt{min: mn, max: mx, done: true}
		return mn, mx, nil
	}
	mn, mx, err := visit(entry)
	if err != nil {
		return PathCycles{}, err
	}
	return PathCycles{Min: mn, Max: mx}, nil
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
