package estimate

import (
	"fmt"
	"sync"

	"polis/internal/expr"
	"polis/internal/vm"
)

// calibMemo caches Calibrate results per target name.
var calibMemo sync.Map // Profile.Name -> *Params

// CalibrateCached is Calibrate memoized per target. The calibration
// fragments depend only on the profile's cost tables, so recalibrating
// the same target for every module of a network (the pipeline
// synthesizes modules independently) is pure repeated work — on a
// 16-module batch it was ~25% of the whole run. A target is identified
// by its Name, as the cache fingerprint identifies it: a caller that
// changes a profile's tables must rename it or call Calibrate
// directly. The returned Params are shared and must be treated as
// read-only.
func CalibrateCached(prof *vm.Profile) (*Params, error) {
	if p, ok := calibMemo.Load(prof.Name); ok {
		return p.(*Params), nil
	}
	p, err := Calibrate(prof)
	if err != nil {
		return nil, err
	}
	got, _ := calibMemo.LoadOrStore(prof.Name, p)
	return got.(*Params), nil
}

// Calibrate determines the cost parameters of a target by assembling
// and measuring sample code fragments in each statement style the code
// generator produces — the counterpart of the paper's ~20 benchmark C
// functions characterised with a cycle calculator. Every parameter is
// obtained by static analysis of a fragment on the target, never read
// out of the profile tables directly, so a divergence between the
// generator's real patterns and the calibration fragments shows up as
// estimation error exactly as it would on real hardware.
//
// A profile whose cost tables cannot assemble or analyze the
// calibration fragments is reported as an error rather than a panic,
// so a corrupt calibration source is a diagnosable failure for
// callers that load profiles from configuration.
func Calibrate(prof *vm.Profile) (*Params, error) {
	p := &Params{
		Target:    prof,
		ExprOpCyc: make(map[expr.Op]int64),
		ExprOpSz:  make(map[expr.Op]int64),
		IntBytes:  prof.IntBytes,
		PtrBytes:  prof.PtrBytes,
		WordSize:  prof.WordBytes,
		ClockKHz:  prof.ClockKHz,
	}

	// Fragment assembly failures are latched and reported once at the
	// end; zero-valued measurements from a failed fragment are never
	// returned to the caller.
	var ferr error
	mk := func(instrs ...vm.Instr) fragResult {
		if ferr != nil {
			return fragResult{}
		}
		fr, err := frag(prof, instrs...)
		if err != nil {
			ferr = err
		}
		return fr
	}
	mkJ := func(n int) fragResult {
		if ferr != nil {
			return fragResult{}
		}
		fr, err := jtabFrag(prof, n)
		if err != nil {
			ferr = err
		}
		return fr
	}

	// The bare routine skeleton: just the HALT return.
	halt := mk()
	p.CallReturnCyc = halt.fallCyc
	p.CallReturnSz = halt.bytes

	// Presence TEST: RTOS presence call plus conditional branch.
	fr := mk(
		vm.Instr{Op: vm.SVC, Num: vm.SvcPresent},
		vm.Instr{Op: vm.BRNZ, Rs: 0},
	)
	p.TestPresenceCyc[0] = fr.fallCyc - halt.fallCyc
	p.TestPresenceCyc[1] = fr.takenCyc - halt.fallCyc
	p.TestPresenceSz = fr.bytes - halt.bytes

	// Boolean predicate branch (on top of the predicate expression).
	fb := mk(vm.Instr{Op: vm.BRNZ, Rs: 1})
	p.TestBoolCyc[0] = fb.fallCyc - halt.fallCyc
	p.TestBoolCyc[1] = fb.takenCyc - halt.fallCyc
	p.TestBoolSz = fb.bytes - halt.bytes

	// Selector state load.
	fl := mk(vm.Instr{Op: vm.LD, Rd: 1, Addr: 0})
	p.TestSelLoadCyc = fl.fallCyc - halt.fallCyc
	p.TestSelLoadSz = fl.bytes - halt.bytes

	// Multi-way dispatch: JTAB tables of 2 and 4 entries give the
	// a + b*i timing model and the per-entry table bytes.
	j2 := mkJ(2)
	j4 := mkJ(4)
	p.TestMultiBaseCyc = j2.minCyc - halt.fallCyc
	p.TestMultiPerEdgeCyc = j2.takenCyc - j2.minCyc // cost per index step
	p.TestMultiPerSz = (j4.bytes - j2.bytes) / 2
	p.TestMultiBaseSz = j2.bytes - halt.bytes - 2*p.TestMultiPerSz

	// Index accumulation step for collapsed tests.
	fi := mk(
		vm.Instr{Op: vm.LDI, Rd: 3, Imm: 2},
		vm.Instr{Op: vm.ALU, AOp: expr.OpMul, Rd: 2, Rs: 3},
		vm.Instr{Op: vm.ALU, AOp: expr.OpAdd, Rd: 2, Rs: 1},
	)
	p.TestIdxStepCyc = fi.fallCyc - halt.fallCyc
	p.TestIdxStepSz = fi.bytes - halt.bytes

	// Emissions (RTOS calls).
	fe := mk(vm.Instr{Op: vm.SVC, Num: vm.SvcEmit})
	p.AssignEmitCyc = fe.fallCyc - halt.fallCyc
	p.AssignEmitSz = fe.bytes - halt.bytes
	p.AssignEmitValuedCyc = p.AssignEmitCyc
	p.AssignEmitVSz = p.AssignEmitSz

	// State store.
	fs := mk(vm.Instr{Op: vm.ST, Addr: 0, Rs: 1})
	p.AssignStoreCyc = fs.fallCyc - halt.fallCyc
	p.AssignStoreSz = fs.bytes - halt.bytes

	// Unconditional branch (goto).
	fg := mk(vm.Instr{Op: vm.JMP})
	p.GotoCyc = fg.fallCyc - halt.fallCyc
	p.GotoSz = fg.bytes - halt.bytes

	// Copy-on-entry of a state variable, and input-value fetch.
	fc := mk(
		vm.Instr{Op: vm.LD, Rd: 1, Addr: 0},
		vm.Instr{Op: vm.ST, Addr: 1, Rs: 1},
	)
	p.LocalCopyCyc = fc.fallCyc - halt.fallCyc
	p.LocalCopySz = fc.bytes - halt.bytes
	fv := mk(
		vm.Instr{Op: vm.SVC, Num: vm.SvcValue},
		vm.Instr{Op: vm.ST, Addr: 0, Rs: 0},
	)
	p.ValueFetchCyc = fv.fallCyc - halt.fallCyc
	p.ValueFetchSz = fv.bytes - halt.bytes

	// Expression operands and operators.
	fk := mk(vm.Instr{Op: vm.LDI, Rd: 1, Imm: 1})
	p.ExprConstCyc = fk.fallCyc - halt.fallCyc
	p.ExprConstSz = fk.bytes - halt.bytes
	fr2 := mk(vm.Instr{Op: vm.LD, Rd: 1, Addr: 0})
	p.ExprRefCyc = fr2.fallCyc - halt.fallCyc
	p.ExprRefSz = fr2.bytes - halt.bytes
	fu := mk(vm.Instr{Op: vm.NEG, Rd: 1})
	p.ExprUnaryCyc = fu.fallCyc - halt.fallCyc

	// Library table: each binary operator lowers to the spill schema
	// ST/LD/ALU/MOV around its operands.
	for op := expr.Op(0); op < expr.Op(expr.NumOps()); op++ {
		fo := mk(
			vm.Instr{Op: vm.ST, Addr: 0, Rs: 1},
			vm.Instr{Op: vm.LD, Rd: 2, Addr: 0},
			vm.Instr{Op: vm.ALU, AOp: op, Rd: 2, Rs: 1},
			vm.Instr{Op: vm.MOV, Rd: 1, Rs: 2},
		)
		p.ExprOpCyc[op] = fo.fallCyc - halt.fallCyc
		p.ExprOpSz[op] = fo.bytes - halt.bytes
	}
	if ferr != nil {
		return nil, ferr
	}
	return p, nil
}

// fragResult carries the measurements of one sample fragment.
type fragResult struct {
	minCyc   int64 // cheapest path
	fallCyc  int64 // path that never takes a conditional branch
	takenCyc int64 // most expensive path (conditional branches taken)
	bytes    int64
}

// frag assembles instrs followed by a HALT at label "end", the only
// label and so label 0, the target of every branch and jump in instrs,
// and measures it statically on the profile. For fragments with one
// conditional branch to "end", the fall-through path and the taken path
// bracket the two edge costs.
func frag(prof *vm.Profile, instrs ...vm.Instr) (fragResult, error) {
	p := vm.NewProgram("frag")
	p.Alloc("t0")
	p.Alloc("t1")
	for _, in := range instrs {
		p.Emit(in)
	}
	_ = p.Mark("end")
	p.Emit(vm.Instr{Op: vm.HALT})
	if err := p.Resolve(); err != nil {
		return fragResult{}, fmt.Errorf("estimate: bad calibration fragment: %w", err)
	}
	pc, err := vm.AnalyzeCycles(prof, p, "")
	if err != nil {
		return fragResult{}, fmt.Errorf("estimate: calibration analysis failed: %w", err)
	}
	res := fragResult{
		minCyc:   pc.Min,
		takenCyc: pc.Max,
		bytes:    int64(prof.CodeSize(p)),
	}
	if hasBranch(instrs) {
		// The branch in these fragments jumps over nothing, so the
		// fall-through path is the cheap one.
		res.fallCyc = pc.Min
	} else {
		res.fallCyc = pc.Max
	}
	return res, nil
}

func hasBranch(instrs []vm.Instr) bool {
	for _, in := range instrs {
		switch in.Op {
		case vm.BR, vm.BRZ, vm.BRNZ:
			return true
		}
	}
	return false
}

// jtabFrag measures a JTAB dispatch with n entries. takenCyc reports
// the cost at index 1 so the per-index increment can be derived.
func jtabFrag(prof *vm.Profile, n int) (fragResult, error) {
	p := vm.NewProgram("jt")
	end := p.Label("end")
	table := make([]int32, n)
	for i := range table {
		table[i] = end
	}
	p.Emit(vm.Instr{Op: vm.JTAB, Rs: 1, Label: p.Table(table...)})
	_ = p.Bind(end)
	p.Emit(vm.Instr{Op: vm.HALT})
	if err := p.Resolve(); err != nil {
		return fragResult{}, fmt.Errorf("estimate: bad jtab fragment: %w", err)
	}
	pc, err := vm.AnalyzeCycles(prof, p, "")
	if err != nil {
		return fragResult{}, fmt.Errorf("estimate: jtab analysis failed: %w", err)
	}
	perStep := int64(0)
	if n > 1 {
		perStep = (pc.Max - pc.Min) / int64(n-1)
	}
	return fragResult{
		minCyc:   pc.Min,
		fallCyc:  pc.Min,
		takenCyc: pc.Min + perStep,
		bytes:    int64(prof.CodeSize(p)),
	}, nil
}
