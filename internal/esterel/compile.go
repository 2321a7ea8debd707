package esterel

import (
	"fmt"

	"polis/internal/cfsm"
	"polis/internal/expr"
)

// cfg node kinds.
type nodeKind int

const (
	nAwait nodeKind = iota
	nCond
	nAction
	nHalt
	nGoto // pass-through used for loop back edges
)

type cfgNode struct {
	kind nodeKind

	awaitSig string // nAwait
	stateID  int

	condExpr    expr.Expr // nCond: data predicate...
	condPresent string    // ...or presence test
	elseNext    *cfgNode

	action Stmt // nAction: EmitStmt or AssignStmt

	next *cfgNode
}

// MaxCompileSize bounds the work of compiling one module, in units of
// one per statement visited while unrolling (each repeat copy counts
// its statements again), one per step of the path enumeration from an
// await, one per guard condition and action of each transition, and
// one per expression node folded along a path: each assignment's own
// nodes, and all nodes of each test, emission and assignment built
// from the folded path state. Nested repeats multiply the first
// count, sequential if statements double the second, and chained
// assignments such as x := x + x double the last, so a short source
// can ask for an unbounded machine; past the budget compilation stops
// with a *SizeError.
const MaxCompileSize = 1 << 16

// SizeError reports a module whose compilation would exceed
// MaxCompileSize.
type SizeError struct{ Module string }

func (e *SizeError) Error() string {
	return fmt.Sprintf("esterel: %s: compiled size exceeds %d units (nested repeat, sequential if or chained assignments)", e.Module, MaxCompileSize)
}

// Compile translates a parsed module into a CFSM: one control state
// per await site (the classical reactive-program-to-FSM translation
// for a single-threaded module). Straight-line code between awaits
// becomes transition actions; if-statements become predicate or
// presence guards. A data-free path from one await back to itself
// without crossing another await (an instantaneous loop) is rejected.
func Compile(m *Module) (*cfsm.CFSM, map[string]*cfsm.Signal, error) {
	sigs := make(map[string]*cfsm.Signal)
	for _, d := range m.Inputs {
		if _, dup := sigs[d.Name]; dup {
			return nil, nil, fmt.Errorf("esterel: duplicate signal %s", d.Name)
		}
		sigs[d.Name] = &cfsm.Signal{Name: d.Name, Pure: !d.Valued}
	}
	for _, d := range m.Outputs {
		if _, dup := sigs[d.Name]; dup {
			return nil, nil, fmt.Errorf("esterel: duplicate signal %s", d.Name)
		}
		sigs[d.Name] = &cfsm.Signal{Name: d.Name, Pure: !d.Valued}
	}
	return compileResolved(m, sigs)
}

// compileResolved compiles a module against pre-resolved signal
// objects (shared across a program's modules by CompileProgram).
func compileResolved(m *Module, sigs map[string]*cfsm.Signal) (*cfsm.CFSM, map[string]*cfsm.Signal, error) {
	c := cfsm.New(m.Name)
	seenIn := map[string]bool{}
	for _, d := range m.Inputs {
		if seenIn[d.Name] {
			return nil, nil, fmt.Errorf("esterel: duplicate signal %s", d.Name)
		}
		seenIn[d.Name] = true
		c.AttachInput(sigs[d.Name])
	}
	for _, d := range m.Outputs {
		if seenIn[d.Name] {
			return nil, nil, fmt.Errorf("esterel: duplicate signal %s", d.Name)
		}
		seenIn[d.Name] = true
		c.AttachOutput(sigs[d.Name])
	}
	vars := make(map[string]*VarDecl, len(m.Vars))
	for i := range m.Vars {
		if _, dup := vars[m.Vars[i].Name]; dup {
			return nil, nil, fmt.Errorf("esterel: duplicate variable %s", m.Vars[i].Name)
		}
		vars[m.Vars[i].Name] = &m.Vars[i]
	}

	size := 0 // units of MaxCompileSize spent
	charge := func(units int) error {
		if size += units; size > MaxCompileSize {
			return &SizeError{Module: m.Name}
		}
		return nil
	}

	// Build the control-flow graph.
	halt := &cfgNode{kind: nHalt}
	var awaits []*cfgNode
	var build func(stmts []Stmt, cont *cfgNode) (*cfgNode, error)
	build = func(stmts []Stmt, cont *cfgNode) (*cfgNode, error) {
		if err := charge(1 + len(stmts)); err != nil {
			return nil, err
		}
		cur := cont
		for i := len(stmts) - 1; i >= 0; i-- {
			switch s := stmts[i].(type) {
			case AwaitStmt:
				if _, ok := sigs[s.Signal]; !ok {
					return nil, fmt.Errorf("esterel: await of undeclared signal %s", s.Signal)
				}
				n := &cfgNode{kind: nAwait, awaitSig: s.Signal, next: cur}
				awaits = append(awaits, n)
				cur = n
			case EmitStmt:
				if _, ok := sigs[s.Signal]; !ok {
					return nil, fmt.Errorf("esterel: emit of undeclared signal %s", s.Signal)
				}
				cur = &cfgNode{kind: nAction, action: s, next: cur}
			case AssignStmt:
				if _, ok := vars[s.Var]; !ok {
					return nil, fmt.Errorf("esterel: assignment to undeclared variable %s", s.Var)
				}
				cur = &cfgNode{kind: nAction, action: s, next: cur}
			case NothingStmt:
				// no node
			case IfStmt:
				thenN, err := build(s.Then, cur)
				if err != nil {
					return nil, err
				}
				elseN, err := build(s.Else, cur)
				if err != nil {
					return nil, err
				}
				if s.Present != "" {
					if _, ok := sigs[s.Present]; !ok {
						return nil, fmt.Errorf("esterel: presence test of undeclared signal %s", s.Present)
					}
				}
				cur = &cfgNode{kind: nCond, condExpr: s.Cond, condPresent: s.Present,
					next: thenN, elseNext: elseN}
			case RepeatStmt:
				// Static unroll: the body repeats Count times.
				for k := int64(0); k < s.Count; k++ {
					body, err := build(s.Body, cur)
					if err != nil {
						return nil, err
					}
					cur = body
				}
			case LoopStmt:
				// The loop's body continues into a back edge that
				// re-enters it.
				back := &cfgNode{kind: nGoto}
				body, err := build(s.Body, back)
				if err != nil {
					return nil, err
				}
				if body == back {
					return nil, fmt.Errorf("esterel: empty loop in %s", m.Name)
				}
				back.next = body
				cur = body
			default:
				return nil, fmt.Errorf("esterel: unsupported statement %T", s)
			}
		}
		return cur, nil
	}
	entry, err := build(m.Body, halt)
	if err != nil {
		return nil, nil, err
	}

	// Fold the initial straight-line prefix (constant assignments
	// only) into state-variable initial values, stopping at the
	// first await.
	inits := make(map[string]int64)
	for _, v := range m.Vars {
		inits[v.Name] = v.Init
	}
	for entry.kind == nGoto {
		entry = entry.next
	}
	for entry.kind == nAction {
		as, ok := entry.action.(AssignStmt)
		if !ok {
			return nil, nil, fmt.Errorf("esterel: %s: emissions before the first await are not supported", m.Name)
		}
		kv, ok := as.Expr.(expr.Const)
		if !ok {
			return nil, nil, fmt.Errorf("esterel: %s: only constant assignments allowed before the first await", m.Name)
		}
		inits[as.Var] = int64(kv)
		entry = entry.next
	}
	if entry.kind != nAwait && entry.kind != nHalt {
		return nil, nil, fmt.Errorf("esterel: %s: module body must reach an await without branching", m.Name)
	}

	// Number the reachable await states (entry first) plus a halt
	// state when reachable.
	var states []*cfgNode
	seen := make(map[*cfgNode]bool)
	haltReachable := false
	var mark func(n *cfgNode)
	mark = func(n *cfgNode) {
		if n == nil || seen[n] {
			return
		}
		seen[n] = true
		switch n.kind {
		case nHalt:
			haltReachable = true
		case nAwait:
			n.stateID = len(states)
			states = append(states, n)
			mark(n.next)
		case nCond:
			mark(n.next)
			mark(n.elseNext)
		case nAction, nGoto:
			mark(n.next)
		}
	}
	mark(entry)
	numStates := len(states)
	haltID := numStates
	if haltReachable {
		numStates++
	}

	var pc *cfsm.StateVar
	if numStates > 1 {
		initID := 0
		if entry.kind == nHalt {
			initID = haltID
		} else {
			initID = entry.stateID
		}
		pc = c.AddState("pc_"+m.Name, numStates, int64(initID))
	} else if entry.kind == nHalt {
		// Degenerate: module does nothing.
	}
	svs := make(map[string]*cfsm.StateVar, len(m.Vars))
	for _, v := range m.Vars {
		svs[v.Name] = c.AddState(v.Name, 0, inits[v.Name])
	}

	// Path enumeration from each await. Esterel statements execute in
	// sequence, while CFSM actions all read the pre-reaction state, so
	// assignments are forwarded symbolically along each path: later
	// reads of an assigned variable substitute its folded expression,
	// and each variable ends up assigned exactly once per transition.
	// One path state is extended on the way down and restored on the
	// way back.
	var (
		conds       []cfsm.Cond
		emits       []*cfsm.Action
		assignOrder []string
		sub         = map[string]expr.Expr{}
		subSize     = map[string]int{} // expression nodes of each sub entry
		onPath      = map[*cfgNode]bool{}
	)
	emitTransition := func(from *cfgNode, target int) error {
		guard := make([]cfsm.Cond, 0, len(conds)+2)
		if pc != nil {
			guard = append(guard, cfsm.On(c.Sel(pc), from.stateID))
		}
		guard = append(guard, cfsm.On(c.Present(sigs[from.awaitSig]), 1))
		guard = append(guard, conds...)
		actions := append([]*cfsm.Action(nil), emits...)
		for _, name := range assignOrder {
			if err := charge(subSize[name]); err != nil {
				return err
			}
			actions = append(actions, c.Assign(svs[name], sub[name]))
		}
		if pc != nil {
			actions = append(actions, c.Assign(pc, expr.C(int64(target))))
		}
		c.AddTransition(guard, actions...)
		return charge(len(guard) + len(actions))
	}

	var walk func(from *cfgNode, n *cfgNode) error
	walk = func(from *cfgNode, n *cfgNode) error {
		if err := charge(1); err != nil {
			return err
		}
		switch n.kind {
		case nAwait:
			return emitTransition(from, n.stateID)
		case nHalt:
			return emitTransition(from, haltID)
		}
		if onPath[n] {
			return fmt.Errorf("esterel: %s: instantaneous loop (no await on a cycle)", m.Name)
		}
		onPath[n] = true
		defer delete(onPath, n)
		switch n.kind {
		case nGoto:
			return walk(from, n.next)
		case nAction:
			switch a := n.action.(type) {
			case EmitStmt:
				if a.Value == nil {
					emits = append(emits, c.Emit(sigs[a.Signal]))
				} else {
					if err := charge(exprSize(a.Value, subSize)); err != nil {
						return err
					}
					emits = append(emits, c.EmitV(sigs[a.Signal], expr.Subst(a.Value, sub)))
				}
				defer func() { emits = emits[:len(emits)-1] }()
			case AssignStmt:
				// Subst copies a.Expr's own nodes.
				if err := charge(exprSize(a.Expr, nil)); err != nil {
					return err
				}
				old, had := sub[a.Var]
				oldSize := subSize[a.Var]
				sub[a.Var], subSize[a.Var] = expr.Subst(a.Expr, sub), exprSize(a.Expr, subSize)
				if !had {
					assignOrder = append(assignOrder, a.Var)
				}
				defer func() {
					if had {
						sub[a.Var], subSize[a.Var] = old, oldSize
						return
					}
					delete(sub, a.Var)
					delete(subSize, a.Var)
					assignOrder = assignOrder[:len(assignOrder)-1]
				}()
			}
			return walk(from, n.next)
		}
		// nCond
		var test *cfsm.Test
		if n.condPresent != "" {
			test = c.Present(sigs[n.condPresent])
		} else {
			if err := charge(exprSize(n.condExpr, subSize)); err != nil {
				return err
			}
			test = c.Pred(expr.Subst(n.condExpr, sub))
		}
		for _, val := range []int{1, 0} {
			var clash, known bool
			for _, old := range conds {
				if old.Test == test {
					clash, known = old.Val != val, true
				}
			}
			if clash {
				continue
			}
			tgt := n.next
			if val == 0 {
				tgt = n.elseNext
			}
			if !known {
				conds = append(conds, cfsm.On(test, val))
			}
			err := walk(from, tgt)
			if !known {
				conds = conds[:len(conds)-1]
			}
			if err != nil {
				return err
			}
		}
		return nil
	}
	for _, a := range states {
		if err := walk(a, a.next); err != nil {
			return nil, nil, err
		}
	}
	if err := c.Validate(); err != nil {
		return nil, nil, err
	}
	return c, sigs, nil
}

// exprSize is the node count of e with each variable in sizes counted
// as that many nodes, saturating just past MaxCompileSize so that
// chained assignments cannot overflow it.
func exprSize(e expr.Expr, sizes map[string]int) int {
	switch x := e.(type) {
	case expr.Ref:
		if n, ok := sizes[string(x)]; ok {
			return n
		}
	case *expr.Un:
		return min(1+exprSize(x.X, sizes), MaxCompileSize+1)
	case *expr.Bin:
		return min(1+exprSize(x.L, sizes)+exprSize(x.R, sizes), MaxCompileSize+1)
	}
	return 1
}

// MustCompile parses and compiles src, panicking on error; intended
// for tests and example construction.
func MustCompile(src string) (*cfsm.CFSM, map[string]*cfsm.Signal) {
	m, err := Parse(src)
	if err != nil {
		panic(err)
	}
	c, sigs, err := Compile(m)
	if err != nil {
		panic(err)
	}
	return c, sigs
}
