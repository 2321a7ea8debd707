package codegen

import (
	"fmt"
	"slices"
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

// Signals inverts the map: the signal of each id.
func (m SignalMap) Signals() []*cfsm.Signal {
	sigs := make([]*cfsm.Signal, len(m))
	for s, id := range m {
		sigs[id] = s
	}
	return sigs
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

	// Data words by position in c.States and c.Inputs: the persistent
	// state words, their entry copies and the input value copies, -1
	// where the prologue makes no copy.
	stateAddr, curAddr, valAddr []int32
	vlab                        int32 // label of vertex ID 0, set by body
	tmpDepth                    int
	maxTmp                      int
}

// instrBufs lends each Builder the instruction buffer it assembles in.
// Finish copies the finished stream out, so no Program keeps one. A
// fresh buffer starts at a size most routines fit rather than growing
// from nothing.
var instrBufs = sync.Pool{New: func() any {
	b := make([]vm.Instr, 0, 256)
	return &b
}}

// NewBuilder prepares a routine for the given CFSM: the entry label is
// marked, state words are allocated and the copy-on-entry prologue is
// emitted according to plan (nil means the conservative plan derived
// from the whole CFSM: everything read is copied). Callers then emit
// the body through the Builder's methods and finish with Finish.
func NewBuilder(c *cfsm.CFSM, sigs SignalMap, opts Options, plan *CopyPlan) (*Builder, error) {
	if plan == nil {
		plan = ConservativePlan(c)
	}
	ns := len(c.States)
	addrs := make([]int32, 2*ns+len(c.Inputs))
	a := &Builder{
		c:         c,
		p:         vm.NewProgram(c.Name),
		sigs:      sigs,
		opts:      opts,
		plan:      plan,
		stateAddr: addrs[:ns:ns],
		curAddr:   addrs[ns : 2*ns : 2*ns],
		valAddr:   addrs[2*ns:],
	}
	a.buf = instrBufs.Get().(*[]vm.Instr)
	a.p.Instrs = (*a.buf)[:0]
	for i, sv := range c.States {
		a.stateAddr[i] = a.p.Alloc(stateSymbol(sv))
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
// still holds the pre-reaction value at every read. It is 0 for a
// variable the machine does not declare.
func (a *Builder) StateReadAddr(sv *cfsm.StateVar) int32 {
	i := slices.Index(a.c.States, sv)
	if i < 0 {
		return 0
	}
	return a.stateRead(i)
}

// stateRead is StateReadAddr of the state variable at position i.
func (a *Builder) stateRead(i int) int32 {
	if cur := a.curAddr[i]; cur >= 0 {
		return cur
	}
	return a.stateAddr[i]
}

// stateWord returns the persistent word of state variable sv, 0 for a
// variable the machine does not declare.
func (a *Builder) stateWord(sv *cfsm.StateVar) int32 {
	if i := slices.Index(a.c.States, sv); i >= 0 {
		return a.stateAddr[i]
	}
	return 0
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
	note := func(names []string) {
		for _, n := range names {
			switch i, value := c.Resolve(n); {
			case i < 0:
			case value:
				plan.ValueRead[c.Inputs[i]] = true
			default:
				plan.Read[c.States[i]] = true
				plan.NeedCopy[c.States[i]] = true
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
	for i, sv := range a.c.States {
		a.curAddr[i] = -1
		if !a.plan.Copied(sv, a.opts.OptimizeCopies) {
			continue
		}
		cur := a.p.Alloc("cur_" + sv.Name)
		a.curAddr[i] = cur
		a.p.Annotate(a.p.Emit(vm.Instr{Op: vm.LD, Rd: RegVal, Addr: a.stateAddr[i]}), copyNote{sv})
		a.p.Emit(vm.Instr{Op: vm.ST, Addr: cur, Rs: RegVal})
	}
	for i, sig := range a.c.Inputs {
		a.valAddr[i] = -1
		if sig.Pure || !a.plan.ValueRead[sig] {
			continue
		}
		addr := a.p.Alloc("val_" + sig.Name)
		a.valAddr[i] = addr
		a.p.Annotate(a.p.Emit(vm.Instr{Op: vm.SVC, Num: vm.SvcValue, Imm: int64(a.sigs[sig])}), valueNote{sig})
		a.p.Emit(vm.Instr{Op: vm.ST, Addr: addr, Rs: 0})
	}
}

// copyNote lists the entry copy of a state variable: "copy x".
type copyNote struct{ sv *cfsm.StateVar }

func (n copyNote) AppendName(b []byte) []byte { return append(append(b, "copy "...), n.sv.Name...) }

// valueNote lists the read of an input's event value by its reference,
// "?x".
type valueNote struct{ sig *cfsm.Signal }

func (n valueNote) AppendName(b []byte) []byte { return expr.AppendEventValue(b, n.sig.Name) }

// readAddr resolves an expression variable name to a data address.
func (a *Builder) readAddr(name string) (int32, error) {
	i, value := a.c.Resolve(name)
	switch {
	case i < 0 && value:
		return 0, fmt.Errorf("codegen: unknown input value %q", name)
	case i < 0:
		return 0, fmt.Errorf("codegen: unknown variable %q", name)
	case value:
		if addr := a.valAddr[i]; addr >= 0 {
			return addr, nil
		}
		return 0, fmt.Errorf("codegen: value of %s read but not copied", a.c.Inputs[i].Name)
	}
	return a.stateRead(i), nil
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

// vertexLabels is the prefix of the vertex labels: vertex v's
// statement is labelled "v" followed by its ID.
const vertexLabels = "v"

// label returns the label of vertex v's statement.
func (a *Builder) label(v *sgraph.Vertex) int32 { return a.vlab + int32(v.ID) }

// body emits the routine's vertices in layout order, each ending in
// the routine's Jump unless a jump table dispatched every outcome.
func (a *Builder) body(r *Routine) error {
	a.p.Reserve(len(r.Order))
	a.vlab = a.p.Labels(vertexLabels, r.G.IDBound())
	for _, v := range r.Order {
		if err := a.p.Bind(a.label(v)); err != nil {
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
			a.p.Emit(vm.Instr{Op: vm.JMP, Label: a.label(w)})
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
			a.p.Annotate(a.p.Emit(vm.Instr{Op: vm.SVC, Num: vm.SvcPresent, Imm: int64(a.sigs[t.Signal])}), t)
			a.p.Emit(vm.Instr{Op: brOp, Rs: 0, Label: a.label(brTo)})
		case cfsm.TestPredicate:
			if err := a.CompileExpr(t.Pred); err != nil {
				return false, err
			}
			a.p.Emit(vm.Instr{Op: brOp, Rs: RegVal, Label: a.label(brTo)})
		default:
			a.p.Annotate(a.p.Emit(vm.Instr{Op: vm.LD, Rd: RegVal, Addr: a.StateReadAddr(t.Sel)}), t)
			a.p.Emit(vm.Instr{Op: brOp, Rs: RegVal, Label: a.label(brTo)})
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
			a.p.Annotate(a.p.Emit(vm.Instr{Op: vm.SVC, Num: vm.SvcPresent, Imm: int64(a.sigs[t.Signal])}), t)
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
			a.p.Annotate(a.p.Emit(vm.Instr{Op: vm.LD, Rd: RegVal, Addr: a.StateReadAddr(t.Sel)}), t)
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
				Label: a.label(v.Children[idx])})
		}
		return false, nil
	}
	table := make([]int32, v.Arity())
	for idx, c := range v.Children {
		table[idx] = a.label(c)
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
		in, e = vm.Instr{Op: vm.ST, Addr: a.stateWord(act.Var), Rs: RegVal}, act.Expr
	default:
		return fmt.Errorf("codegen: unknown action kind")
	}
	if e != nil {
		if err := a.CompileExpr(e); err != nil {
			return err
		}
	}
	in.Fires = true
	a.p.Annotate(a.p.Emit(in), act)
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
