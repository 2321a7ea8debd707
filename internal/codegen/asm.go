package codegen

import (
	"fmt"
	"strconv"
	"sync"

	"polis/internal/cfsm"
	"polis/internal/expr"
	"polis/internal/sgraph"
	"polis/internal/vm"
)

// SignalMap assigns the small integer ids under which the RTOS knows
// signals; the SVC instructions of generated code use them.
type SignalMap map[*cfsm.Signal]int

// NewSignalMap numbers the inputs and outputs of a CFSM consecutively.
func NewSignalMap(c *cfsm.CFSM) SignalMap {
	m := make(SignalMap)
	id := 0
	for _, s := range c.Inputs {
		m[s] = id
		id++
	}
	for _, s := range c.Outputs {
		if _, ok := m[s]; !ok {
			m[s] = id
			id++
		}
	}
	return m
}

// Options controls code generation.
type Options struct {
	// OptimizeCopies enables the write-before-read data-flow
	// analysis: only state variables assigned before a later read
	// get an entry copy. Off reproduces the paper's conservative
	// copy-everything behaviour (Section V-B).
	OptimizeCopies bool
	// IfThreshold is the TEST arity at or below which a chain of
	// compare-and-branch instructions is generated instead of a jump
	// table (the paper's target-dependent switch/if parameter);
	// NewRoutine turns zero into 2.
	IfThreshold int
}

// Register conventions of generated code.
const (
	RegVal = 1 // expression results
	RegTmp = 2 // expression left operands
	RegAux = 3 // scratch for comparisons and immediates
	// RegAcc holds multi-way outcome accumulators; it must be
	// distinct from everything CompileExpr touches, since predicates
	// are compiled while an accumulation is in flight.
	RegAcc = 4
)

// Builder carries the shared state of one routine's generation:
// program, prologue copies, address maps and the expression compiler.
// The s-graph assembler uses it, and so do the alternative code
// generators (boolean-circuit and two-level-jump baselines), so all
// strategies share one lowering of expressions, emissions and RTOS
// traps and their costs stay comparable.
type Builder struct {
	c    *cfsm.CFSM
	p    *vm.Program
	buf  *[]vm.Instr // the lent buffer p.Instrs grows in until Finish
	sigs SignalMap
	opts Options
	plan *CopyPlan

	stateAddr map[*cfsm.StateVar]int // persistent state words
	curAddr   map[*cfsm.StateVar]int // entry copies (when needed)
	valAddr   map[*cfsm.Signal]int   // input value copies
	vlab      []int32                // vertex ID -> label, set by body
	tmpDepth  int
	maxTmp    int
}

// instrBufs lends each Builder the instruction buffer it assembles in.
// Finish copies the finished stream out, so no Program keeps one.
var instrBufs = sync.Pool{New: func() any { return new([]vm.Instr) }}

// NewBuilder prepares a routine for the given CFSM: the entry label is
// marked, state words are allocated and the copy-on-entry prologue is
// emitted according to plan (nil means the conservative plan derived
// from the whole CFSM: everything read is copied). Callers then emit
// the body through the Builder's methods and finish with Finish.
func NewBuilder(c *cfsm.CFSM, sigs SignalMap, opts Options, plan *CopyPlan) (*Builder, error) {
	if plan == nil {
		plan = ConservativePlan(c)
	}
	a := &Builder{
		c:         c,
		p:         vm.NewProgram(c.Name),
		sigs:      sigs,
		opts:      opts,
		plan:      plan,
		stateAddr: make(map[*cfsm.StateVar]int),
		curAddr:   make(map[*cfsm.StateVar]int),
		valAddr:   make(map[*cfsm.Signal]int),
	}
	a.buf = instrBufs.Get().(*[]vm.Instr)
	a.p.Instrs = (*a.buf)[:0]
	for _, sv := range c.States {
		a.stateAddr[sv] = a.p.Alloc(stateSymbol(sv))
	}
	if err := a.p.Mark(EntryLabel(c)); err != nil {
		return nil, err
	}
	a.prologue()
	return a, nil
}

// Prog exposes the program under construction for direct emission.
func (a *Builder) Prog() *vm.Program { return a.p }

// Finish resolves labels and returns the completed program, whose
// instructions it copies out of the Builder's buffer into a slice of
// exactly their number. The Builder is done after it.
func (a *Builder) Finish() (*vm.Program, error) {
	if err := a.p.Resolve(); err != nil {
		return nil, err
	}
	ins := a.p.Instrs
	a.p.Instrs = make([]vm.Instr, len(ins))
	copy(a.p.Instrs, ins)
	*a.buf = ins[:0]
	instrBufs.Put(a.buf)
	return a.p, nil
}

// StateReadAddr returns the data word reads of a state variable use:
// its entry copy when one exists, else the persistent word, which
// still holds the pre-reaction value at every read.
func (a *Builder) StateReadAddr(sv *cfsm.StateVar) int {
	if cur, ok := a.curAddr[sv]; ok {
		return cur
	}
	return a.stateAddr[sv]
}

// SignalID returns the RTOS id of a signal.
func (a *Builder) SignalID(s *cfsm.Signal) int { return a.sigs[s] }

// ConservativePlan marks every variable occurring in any test or
// action of the CFSM as read and needing a copy — what a generator
// that cannot see paths must assume.
func ConservativePlan(c *cfsm.CFSM) *CopyPlan {
	plan := &CopyPlan{
		Read:      make(map[*cfsm.StateVar]bool),
		NeedCopy:  make(map[*cfsm.StateVar]bool),
		ValueRead: make(map[*cfsm.Signal]bool),
	}
	byName := make(map[string]*cfsm.StateVar)
	for _, sv := range c.States {
		byName[sv.Name] = sv
	}
	sigByName := make(map[string]*cfsm.Signal)
	for _, s := range c.Inputs {
		sigByName[s.Name] = s
	}
	note := func(names []string) {
		for _, n := range names {
			if len(n) > 0 && n[0] == '?' {
				if sig := sigByName[n[1:]]; sig != nil {
					plan.ValueRead[sig] = true
				}
				continue
			}
			if sv := byName[n]; sv != nil {
				plan.Read[sv] = true
				plan.NeedCopy[sv] = true
			}
		}
	}
	for _, t := range c.Tests {
		switch t.Kind {
		case cfsm.TestPredicate:
			note(t.Pred.Vars(nil))
		case cfsm.TestSelector:
			plan.Read[t.Sel] = true
			plan.NeedCopy[t.Sel] = true
		}
	}
	for _, act := range c.Actions {
		switch act.Kind {
		case cfsm.ActEmit:
			if act.Value != nil {
				note(act.Value.Vars(nil))
			}
		case cfsm.ActAssign:
			note(act.Expr.Vars(nil))
		}
	}
	return plan
}

// EntryLabel returns the label of a CFSM's reaction routine.
func EntryLabel(c *cfsm.CFSM) string { return c.Name + "_react" }

// stateSymbol is the name of state variable sv's static storage, in
// the C text and the object code alike.
func stateSymbol(sv *cfsm.StateVar) string { return "st_" + sv.Name }

// Assemble translates an s-graph into a routine for the virtual CPU;
// it is NewRoutine(g, opts).Assemble(sigs).
func Assemble(g *sgraph.SGraph, sigs SignalMap, opts Options) (*vm.Program, error) {
	return NewRoutine(g, opts).Assemble(sigs)
}

// Assemble translates the routine into a program for the virtual CPU.
// The program reads event presence and values through SVC traps,
// updates the persistent state words allocated in it, and halts.
// State variables live in the program's data memory and keep their
// values across runs of one vm.Machine.
func (r *Routine) Assemble(sigs SignalMap) (*vm.Program, error) {
	a, err := NewBuilder(r.G.C, sigs, r.Opts, r.Plan)
	if err != nil {
		return nil, err
	}
	if err := a.body(r); err != nil {
		return nil, err
	}
	return a.Finish()
}

// prologue copies state variables and input values on entry, per the
// paper's copy-on-entry discipline (optionally trimmed by data flow).
func (a *Builder) prologue() {
	for _, sv := range a.c.States {
		if !a.plan.Copied(sv, a.opts.OptimizeCopies) {
			continue
		}
		cur := a.p.Alloc("cur_" + sv.Name)
		a.curAddr[sv] = cur
		a.p.Comment(a.p.Emit(vm.Instr{Op: vm.LD, Rd: RegVal, Addr: a.stateAddr[sv]}), "copy "+sv.Name)
		a.p.Emit(vm.Instr{Op: vm.ST, Addr: cur, Rs: RegVal})
	}
	for _, sig := range a.c.Inputs {
		if sig.Pure || !a.plan.ValueRead[sig] {
			continue
		}
		addr := a.p.Alloc("val_" + sig.Name)
		a.valAddr[sig] = addr
		a.p.Comment(a.p.Emit(vm.Instr{Op: vm.SVC, Num: vm.SvcValue, Imm: int64(a.sigs[sig])}), "?"+sig.Name)
		a.p.Emit(vm.Instr{Op: vm.ST, Addr: addr, Rs: 0})
	}
}

// readAddr resolves an expression variable name to a data address.
func (a *Builder) readAddr(name string) (int, error) {
	if len(name) > 0 && name[0] == '?' {
		for _, sig := range a.c.Inputs {
			if sig.Name == name[1:] {
				if addr, ok := a.valAddr[sig]; ok {
					return addr, nil
				}
				return 0, fmt.Errorf("codegen: value of %s read but not copied", sig.Name)
			}
		}
		return 0, fmt.Errorf("codegen: unknown input value %q", name)
	}
	for _, sv := range a.c.States {
		if sv.Name == name {
			return a.StateReadAddr(sv), nil
		}
	}
	return 0, fmt.Errorf("codegen: unknown variable %q", name)
}

// CompileExpr evaluates e into register RegVal using the simple
// two-register stack schema (partial results spill to per-depth
// temporaries), mirroring what a very simple embedded C compiler
// produces — which is exactly the regime the paper's estimator is
// calibrated for.
func (a *Builder) CompileExpr(e expr.Expr) error {
	switch x := e.(type) {
	case expr.Const:
		a.p.Emit(vm.Instr{Op: vm.LDI, Rd: RegVal, Imm: int64(x)})
		return nil
	case expr.Ref:
		addr, err := a.readAddr(string(x))
		if err != nil {
			return err
		}
		a.p.Emit(vm.Instr{Op: vm.LD, Rd: RegVal, Addr: addr})
		return nil
	case *expr.Un:
		if err := a.CompileExpr(x.X); err != nil {
			return err
		}
		switch x.Op {
		case expr.UnNeg:
			a.p.Emit(vm.Instr{Op: vm.NEG, Rd: RegVal})
		case expr.UnNot:
			a.p.Emit(vm.Instr{Op: vm.NOT, Rd: RegVal})
		default:
			// Bitwise complement as -x - 1.
			a.p.Emit(vm.Instr{Op: vm.NEG, Rd: RegVal})
			a.p.Emit(vm.Instr{Op: vm.LDI, Rd: RegTmp, Imm: 1})
			a.p.Emit(vm.Instr{Op: vm.ALU, AOp: expr.OpSub, Rd: RegVal, Rs: RegTmp})
		}
		return nil
	case *expr.Bin:
		if err := a.CompileExpr(x.L); err != nil {
			return err
		}
		tmp := a.p.Alloc("tmp" + strconv.Itoa(a.tmpDepth))
		a.tmpDepth++
		if a.tmpDepth > a.maxTmp {
			a.maxTmp = a.tmpDepth
		}
		a.p.Emit(vm.Instr{Op: vm.ST, Addr: tmp, Rs: RegVal})
		if err := a.CompileExpr(x.R); err != nil {
			return err
		}
		a.tmpDepth--
		a.p.Emit(vm.Instr{Op: vm.LD, Rd: RegTmp, Addr: tmp})
		a.p.Emit(vm.Instr{Op: vm.ALU, AOp: x.Op, Rd: RegTmp, Rs: RegVal})
		a.p.Emit(vm.Instr{Op: vm.MOV, Rd: RegVal, Rs: RegTmp})
		return nil
	}
	return fmt.Errorf("codegen: unknown expression node %T", e)
}

func vlabel(v *sgraph.Vertex) string { return "v" + strconv.Itoa(v.ID) }

// body emits the routine's vertices in layout order, each ending in
// the routine's Jump unless a jump table dispatched every outcome.
func (a *Builder) body(r *Routine) error {
	a.p.Reserve(len(r.Order))
	a.vlab = make([]int32, r.G.IDBound())
	for _, v := range r.Order {
		a.vlab[v.ID] = a.p.Label(vlabel(v))
	}
	for _, v := range r.Order {
		if err := a.p.Bind(a.vlab[v.ID]); err != nil {
			return err
		}
		switch v.Kind {
		case sgraph.End:
			a.p.Emit(vm.Instr{Op: vm.HALT})
		case sgraph.Assign:
			if err := a.EmitAction(v.Action); err != nil {
				return err
			}
		case sgraph.Test:
			tabled, err := a.emitTest(v)
			if err != nil {
				return err
			}
			if tabled {
				continue
			}
		}
		if w := r.Jump(v); w != nil {
			a.p.Emit(vm.Instr{Op: vm.JMP, Label: a.vlab[w.ID]})
		}
	}
	return nil
}

// emitTest lowers a TEST vertex: presence tests through an RTOS trap,
// predicates through expression code, selectors and collapsed tests
// through a jump table or a compare-and-branch chain depending on
// arity (the paper's switch/if threshold). It reports whether a jump
// table dispatched every outcome, leaving no fall-through arm.
func (a *Builder) emitTest(v *sgraph.Vertex) (bool, error) {
	if len(v.Tests) == 1 && v.Tests[0].Arity() == 2 {
		t := v.Tests[0]
		// The branch sense follows the hot order: the fall-through arm
		// is FallIdx() (outcome 0 unless specialized), and the branch
		// takes the other outcome. BRZ and BRNZ cost the same in both
		// size profiles, so swapping the sense is free.
		brOp, brTo := vm.BRNZ, v.Children[1]
		if v.FallIdx() == 1 {
			brOp, brTo = vm.BRZ, v.Children[0]
		}
		switch t.Kind {
		case cfsm.TestPresence:
			a.p.Comment(a.p.Emit(vm.Instr{Op: vm.SVC, Num: vm.SvcPresent, Imm: int64(a.sigs[t.Signal])}), t.Name())
			a.p.Emit(vm.Instr{Op: brOp, Rs: 0, Label: a.vlab[brTo.ID]})
		case cfsm.TestPredicate:
			if err := a.CompileExpr(t.Pred); err != nil {
				return false, err
			}
			a.p.Emit(vm.Instr{Op: brOp, Rs: RegVal, Label: a.vlab[brTo.ID]})
		default:
			a.p.Comment(a.p.Emit(vm.Instr{Op: vm.LD, Rd: RegVal, Addr: a.StateReadAddr(t.Sel)}), t.Name())
			a.p.Emit(vm.Instr{Op: brOp, Rs: RegVal, Label: a.vlab[brTo.ID]})
		}
		return false, nil
	}
	// Multi-way: compute the combined outcome index into RegAcc
	// (CompileExpr may run mid-accumulation and clobbers RegVal,
	// RegTmp and RegAux).
	a.p.Emit(vm.Instr{Op: vm.LDI, Rd: RegAcc, Imm: 0})
	for _, t := range v.Tests {
		if t.Arity() > 1 {
			a.p.Emit(vm.Instr{Op: vm.LDI, Rd: RegAux, Imm: int64(t.Arity())})
			a.p.Emit(vm.Instr{Op: vm.ALU, AOp: expr.OpMul, Rd: RegAcc, Rs: RegAux})
		}
		switch t.Kind {
		case cfsm.TestPresence:
			a.p.Comment(a.p.Emit(vm.Instr{Op: vm.SVC, Num: vm.SvcPresent, Imm: int64(a.sigs[t.Signal])}), t.Name())
			a.p.Emit(vm.Instr{Op: vm.ALU, AOp: expr.OpAdd, Rd: RegAcc, Rs: 0})
		case cfsm.TestPredicate:
			if err := a.CompileExpr(t.Pred); err != nil {
				return false, err
			}
			// Normalise to 0/1.
			a.p.Emit(vm.Instr{Op: vm.NOT, Rd: RegVal})
			a.p.Emit(vm.Instr{Op: vm.NOT, Rd: RegVal})
			a.p.Emit(vm.Instr{Op: vm.ALU, AOp: expr.OpAdd, Rd: RegAcc, Rs: RegVal})
		default:
			a.p.Comment(a.p.Emit(vm.Instr{Op: vm.LD, Rd: RegVal, Addr: a.StateReadAddr(t.Sel)}), t.Name())
			a.p.Emit(vm.Instr{Op: vm.ALU, AOp: expr.OpAdd, Rd: RegAcc, Rs: RegVal})
		}
	}
	if v.Arity() <= a.opts.IfThreshold {
		// Compare-and-branch chain in emission order: cold outcomes
		// pay the later comparisons, the hottest falls through.
		for pos := 1; pos < v.Arity(); pos++ {
			idx := v.OutcomeAt(pos)
			a.p.Emit(vm.Instr{Op: vm.LDI, Rd: RegAux, Imm: int64(idx)})
			a.p.Emit(vm.Instr{Op: vm.BR, Cond: vm.CondEQ, Rs: RegAcc, Rt: RegAux,
				Label: a.vlab[v.Children[idx].ID]})
		}
		return false, nil
	}
	table := make([]int32, v.Arity())
	for idx, c := range v.Children {
		table[idx] = a.vlab[c.ID]
	}
	a.p.Emit(vm.Instr{Op: vm.JTAB, Rs: RegAcc, Label: a.p.Table(table...)})
	return true, nil
}

// EmitAction lowers an ASSIGN vertex. Its one effect instruction (the
// emission trap or the state store) carries the Fires mark, through
// which the machine reports whether the vertex ran. The expression code
// before it has no branch, so the mark executes exactly when the
// vertex does.
func (a *Builder) EmitAction(act *cfsm.Action) error {
	var in vm.Instr
	var e expr.Expr
	switch act.Kind {
	case cfsm.ActEmit:
		in, e = vm.Instr{Op: vm.SVC, Num: vm.SvcEmit, Imm: int64(a.sigs[act.Signal])}, act.Value
		if e != nil {
			in.Num, in.Rs = vm.SvcEmitV, RegVal
		}
	case cfsm.ActAssign:
		in, e = vm.Instr{Op: vm.ST, Addr: a.stateAddr[act.Var], Rs: RegVal}, act.Expr
	default:
		return fmt.Errorf("codegen: unknown action kind")
	}
	if e != nil {
		if err := a.CompileExpr(e); err != nil {
			return err
		}
	}
	in.Fires = true
	a.p.Comment(a.p.Emit(in), act.Name())
	return nil
}

// InitStateMemory writes the initial values of c's state variables
// into a machine's memory.
func InitStateMemory(c *cfsm.CFSM, p *vm.Program, m *vm.Machine) {
	for _, sv := range c.States {
		if addr, ok := p.Symbols[stateSymbol(sv)]; ok {
			m.Mem[addr] = sv.Init
		}
	}
}

// StateAddr returns the address of state variable sv's storage in p,
// or 0 when p allocates none.
func StateAddr(p *vm.Program, sv *cfsm.StateVar) int { return p.Symbols[stateSymbol(sv)] }
