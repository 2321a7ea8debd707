package vm

import (
	"fmt"
	"slices"
	"sync"
)

// PathCycles is the result of static object-code timing analysis: the
// exact minimum and maximum cycles of any execution path. This is the
// "measurement by analysing the compiled object code" the paper uses
// for the timing column of Table I, applied to the virtual target.
type PathCycles struct {
	Min int64
	Max int64
}

// memoEnt is AnalyzeCycles' record of one instruction: its cycle
// bounds to a HALT once done, and whether a visit of it is in flight.
type memoEnt struct {
	min, max int64
	done     bool
	onStack  bool
}

// memos lends AnalyzeCycles its memo, which no result keeps.
var memos = sync.Pool{New: func() any { return new([]memoEnt) }}

// AnalyzeCycles computes the minimum and maximum cycle counts over all
// paths from the entry label to any HALT, by shortest/longest path
// over the instruction control-flow graph. The routine must be acyclic
// (s-graph generated code is); a cycle is reported as an error. Every
// instruction on a path is checked as Run checks it, so a malformed
// one fails with the same *DecodeError (or *LabelError) instead of
// being costed.
func AnalyzeCycles(prof *Profile, prog *Program, label string) (PathCycles, error) {
	entry, err := prog.entry(label)
	if err != nil {
		return PathCycles{}, err
	}
	// One memo entry per instruction, indexed by pc.
	mp := memos.Get().(*[]memoEnt)
	memo := slices.Grow((*mp)[:0], len(prog.Instrs))[:len(prog.Instrs)]
	clear(memo)
	c := newCosts(prof)

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
		mn, mx, err := visitInstr(&c, prog, pc, visit)
		e.onStack = false
		if err != nil {
			return 0, 0, err
		}
		*e = memoEnt{min: mn, max: mx, done: true}
		return mn, mx, nil
	}
	mn, mx, err := visit(entry)
	*mp = memo[:0]
	memos.Put(mp)
	if err != nil {
		return PathCycles{}, err
	}
	return PathCycles{Min: mn, Max: mx}, nil
}

// visitInstr returns the cycle bounds from the checked instruction at
// pc to a HALT, through visit for its successors.
func visitInstr(c *costs, prog *Program, pc int, visit func(int) (int64, int64, error)) (mn, mx int64, err error) {
	in := &prog.Instrs[pc]
	base, next := c.op[in.Op], pc+1
	switch in.Op {
	case HALT:
		return base, base, nil
	case JMP:
		next = int(prog.at[in.Label])
	case BR, BRZ, BRNZ:
		tMin, tMax, err := visit(int(prog.at[in.Label]))
		if err != nil {
			return 0, 0, err
		}
		fMin, fMax, err := visit(pc + 1)
		if err != nil {
			return 0, 0, err
		}
		taken := base + c.taken
		return min(taken+tMin, base+fMin), max(taken+tMax, base+fMax), nil
	case JTAB:
		for idx, l := range prog.tables[in.Label] {
			m1, m2, err := visit(int(prog.at[l]))
			if err != nil {
				return 0, 0, err
			}
			disp := base + c.perEntry*int64(idx)
			if idx == 0 {
				mn, mx = disp+m1, disp+m2
				continue
			}
			mn = min(mn, disp+m1)
			mx = max(mx, disp+m2)
		}
		return mn, mx, nil
	case ALU:
		base = c.alu[in.AOp]
	}
	m1, m2, err := visit(next)
	if err != nil {
		return 0, 0, err
	}
	return base + m1, base + m2, nil
}
