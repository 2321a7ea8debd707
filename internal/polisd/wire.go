// Package polisd is the synthesis service core behind cmd/polisd: a
// long-running HTTP server that accepts batches of CFSM networks over
// a JSON wire format, synthesizes them through the shared pipeline
// with a process-lifetime warm cache, and streams per-module results.
// Identical modules across concurrent requests are deduplicated
// (singleflight), and resubmitting an edited network re-synthesizes
// only the changed modules — everything else is served from cache.
package polisd

import (
	"fmt"

	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/expr"
	"polis/internal/pipeline"
	"polis/internal/sgraph"
	"polis/internal/vm"
)

// The wire format mirrors the cfsm model structurally: signals and
// state variables are referenced by name, tests and actions by their
// index in the machine's interned lists, so Decode(Encode(n))
// reproduces each machine with identical content fingerprints.

// WireExpr is the JSON encoding of an expr.Expr. Exactly one shape is
// populated: Const alone; Ref alone; Op+L+R for a binary node; Un+X
// for a unary node.
type WireExpr struct {
	Const *int64    `json:"const,omitempty"`
	Ref   string    `json:"ref,omitempty"`
	Op    string    `json:"op,omitempty"` // binary operator name (add, eq, ...)
	L     *WireExpr `json:"l,omitempty"`
	R     *WireExpr `json:"r,omitempty"`
	Un    string    `json:"un,omitempty"` // unary operator: neg, not, bnot
	X     *WireExpr `json:"x,omitempty"`
}

// WireSignal declares a network-level event channel.
type WireSignal struct {
	Name string `json:"name"`
	Pure bool   `json:"pure,omitempty"`
}

// WireState declares a machine state variable.
type WireState struct {
	Name   string `json:"name"`
	Domain int    `json:"domain,omitempty"` // >0: control variable
	Init   int64  `json:"init,omitempty"`
}

// WireTest is one primitive test; Kind selects which field applies.
type WireTest struct {
	Kind   string    `json:"kind"`             // "present" | "pred" | "sel"
	Signal string    `json:"signal,omitempty"` // present: input signal name
	Pred   *WireExpr `json:"pred,omitempty"`   // pred: predicate expression
	Sel    string    `json:"sel,omitempty"`    // sel: control state variable name
}

// WireAction is one primitive action; Kind selects which fields apply.
type WireAction struct {
	Kind   string    `json:"kind"`             // "emit" | "assign"
	Signal string    `json:"signal,omitempty"` // emit: output signal name
	Value  *WireExpr `json:"value,omitempty"`  // emit: optional value
	Var    string    `json:"var,omitempty"`    // assign: state variable name
	Expr   *WireExpr `json:"expr,omitempty"`   // assign: right-hand side
}

// WireCond requires test Test (index into the machine's test list) to
// have outcome Val.
type WireCond struct {
	Test int `json:"test"`
	Val  int `json:"val"`
}

// WireTrans is one transition: fire the actions (indices into the
// machine's action list) when every guard condition holds.
type WireTrans struct {
	Guard   []WireCond `json:"guard"`
	Actions []int      `json:"actions,omitempty"`
}

// WireMachine is one CFSM. Inputs and Outputs name network signals.
type WireMachine struct {
	Name      string       `json:"name"`
	Inputs    []string     `json:"inputs,omitempty"`
	Outputs   []string     `json:"outputs,omitempty"`
	States    []WireState  `json:"states,omitempty"`
	Tests     []WireTest   `json:"tests,omitempty"`
	Actions   []WireAction `json:"actions,omitempty"`
	Trans     []WireTrans  `json:"trans,omitempty"`
	Exclusive [][]int      `json:"exclusive,omitempty"` // groups of test indices
}

// WireNetwork is a complete CFSM network.
type WireNetwork struct {
	Name     string        `json:"name"`
	Signals  []WireSignal  `json:"signals"`
	Machines []WireMachine `json:"machines"`
}

// WireOptions selects the synthesis configuration by name; zero
// values are the paper's defaults (HC11 target, sift-after-support).
type WireOptions struct {
	Target         string `json:"target,omitempty"`   // "hc11" (default) | "r3k"
	Ordering       string `json:"ordering,omitempty"` // "default" | "naive" | "inputs-first"
	OptimizeCopies bool   `json:"optimize_copies,omitempty"`
	IfThreshold    int    `json:"if_threshold,omitempty"`
	UseFalsePaths  bool   `json:"false_paths,omitempty"`
	Reduce         bool   `json:"reduce,omitempty"`
}

// Options resolves the wire options to pipeline options. Names
// resolve through vm.Target and sgraph.ParseOrdering; an empty name is
// the default.
func (w WireOptions) Options() (pipeline.Options, error) {
	o := pipeline.Options{
		Codegen:       codegen.Options{OptimizeCopies: w.OptimizeCopies, IfThreshold: w.IfThreshold},
		UseFalsePaths: w.UseFalsePaths,
		Reduce:        w.Reduce,
	}
	var err error
	if w.Target != "" {
		o.Target, err = vm.Target(w.Target)
	}
	if err == nil && w.Ordering != "" {
		o.Ordering, err = sgraph.ParseOrdering(w.Ordering)
	}
	return o, err
}

// EncodeOptions is the inverse of Options: it names o's target and
// ordering by the tables Options resolves them through, so the decoded
// options fingerprint every machine as o does. Options the wire cannot
// carry are an error rather than a silent drop: a target that is not
// built in or a specialization profile.
func EncodeOptions(o pipeline.Options) (WireOptions, error) {
	w := WireOptions{
		Ordering:       o.Ordering.Name(),
		OptimizeCopies: o.Codegen.OptimizeCopies,
		IfThreshold:    o.Codegen.IfThreshold,
		UseFalsePaths:  o.UseFalsePaths,
		Reduce:         o.Reduce,
	}
	var err error
	switch {
	case w.Ordering == "":
		err = fmt.Errorf("ordering %d has no wire name", o.Ordering)
	case o.Profile != nil:
		err = fmt.Errorf("a specialization profile has no wire form")
	case o.Target != nil:
		w.Target = o.Target.Name
		_, err = vm.Target(w.Target)
	}
	return w, err
}

// binOps maps wire operator names to expr binary operators, built
// from the expr package's own name table so the two cannot drift.
var binOps = func() map[string]expr.Op {
	m := make(map[string]expr.Op, expr.NumOps())
	for i := 0; i < expr.NumOps(); i++ {
		m[expr.Op(i).Name()] = expr.Op(i)
	}
	return m
}()

var unNames = map[expr.UnOp]string{
	expr.UnNeg:    "neg",
	expr.UnNot:    "not",
	expr.UnBitNot: "bnot",
}

// unOps is the inverse of unNames.
var unOps = func() map[string]expr.UnOp {
	m := make(map[string]expr.UnOp, len(unNames))
	for op, name := range unNames {
		m[name] = op
	}
	return m
}()

func encodeExpr(e expr.Expr) *WireExpr {
	switch v := e.(type) {
	case expr.Const:
		n := int64(v)
		return &WireExpr{Const: &n}
	case expr.Ref:
		return &WireExpr{Ref: string(v)}
	case *expr.Bin:
		return &WireExpr{Op: v.Op.Name(), L: encodeExpr(v.L), R: encodeExpr(v.R)}
	case *expr.Un:
		return &WireExpr{Un: unNames[v.Op], X: encodeExpr(v.X)}
	default:
		panic(fmt.Sprintf("polisd: unknown expr node %T", e))
	}
}

func decodeExpr(w *WireExpr) (expr.Expr, error) {
	switch {
	case w == nil:
		return nil, fmt.Errorf("missing expression")
	case w.Const != nil:
		return expr.Const(*w.Const), nil
	case w.Ref != "":
		return expr.Ref(w.Ref), nil
	case w.Op != "":
		op, ok := binOps[w.Op]
		if !ok {
			return nil, fmt.Errorf("unknown operator %q", w.Op)
		}
		l, err := decodeExpr(w.L)
		if err != nil {
			return nil, fmt.Errorf("%s: left: %w", w.Op, err)
		}
		r, err := decodeExpr(w.R)
		if err != nil {
			return nil, fmt.Errorf("%s: right: %w", w.Op, err)
		}
		return expr.NewBin(op, l, r), nil
	case w.Un != "":
		op, ok := unOps[w.Un]
		if !ok {
			return nil, fmt.Errorf("unknown unary operator %q", w.Un)
		}
		x, err := decodeExpr(w.X)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Un, err)
		}
		return &expr.Un{Op: op, X: x}, nil
	default:
		return nil, fmt.Errorf("expression node has no shape (want const, ref, op or un)")
	}
}

// EncodeNetwork renders a network in the wire format.
func EncodeNetwork(n *cfsm.Network) *WireNetwork {
	w := &WireNetwork{Name: n.Name}
	for _, s := range n.Signals {
		w.Signals = append(w.Signals, WireSignal{Name: s.Name, Pure: s.Pure})
	}
	for _, c := range n.Machines {
		w.Machines = append(w.Machines, *encodeMachine(c))
	}
	return w
}

func encodeMachine(c *cfsm.CFSM) *WireMachine {
	w := &WireMachine{Name: c.Name}
	for _, s := range c.Inputs {
		w.Inputs = append(w.Inputs, s.Name)
	}
	for _, s := range c.Outputs {
		w.Outputs = append(w.Outputs, s.Name)
	}
	for _, v := range c.States {
		w.States = append(w.States, WireState{Name: v.Name, Domain: v.Domain, Init: v.Init})
	}
	for _, t := range c.Tests {
		var wt WireTest
		switch t.Kind {
		case cfsm.TestPresence:
			wt = WireTest{Kind: "present", Signal: t.Signal.Name}
		case cfsm.TestPredicate:
			wt = WireTest{Kind: "pred", Pred: encodeExpr(t.Pred)}
		case cfsm.TestSelector:
			wt = WireTest{Kind: "sel", Sel: t.Sel.Name}
		}
		w.Tests = append(w.Tests, wt)
	}
	for _, a := range c.Actions {
		var wa WireAction
		switch a.Kind {
		case cfsm.ActEmit:
			wa = WireAction{Kind: "emit", Signal: a.Signal.Name}
			if a.Value != nil {
				wa.Value = encodeExpr(a.Value)
			}
		case cfsm.ActAssign:
			wa = WireAction{Kind: "assign", Var: a.Var.Name, Expr: encodeExpr(a.Expr)}
		}
		w.Actions = append(w.Actions, wa)
	}
	for _, tr := range c.Trans {
		wt := WireTrans{Guard: []WireCond{}}
		for _, g := range tr.Guard {
			wt.Guard = append(wt.Guard, WireCond{Test: c.TestID(g.Test), Val: g.Val})
		}
		for _, a := range tr.Actions {
			wt.Actions = append(wt.Actions, c.ActionID(a))
		}
		w.Trans = append(w.Trans, wt)
	}
	for _, grp := range c.Exclusive {
		ids := make([]int, len(grp))
		for i, t := range grp {
			ids[i] = c.TestID(t)
		}
		w.Exclusive = append(w.Exclusive, ids)
	}
	return w
}

// DecodeNetwork reconstructs a validated cfsm.Network from the wire
// format. Tests and actions are re-interned in wire order, so indices
// in transitions refer to the same objects on both sides and the
// decoded machines fingerprint identically to the encoded originals.
func DecodeNetwork(w *WireNetwork) (*cfsm.Network, error) {
	if w == nil {
		return nil, fmt.Errorf("missing network")
	}
	net := cfsm.NewNetwork(w.Name)
	sigs := make(map[string]*cfsm.Signal, len(w.Signals))
	for _, ws := range w.Signals {
		if ws.Name == "" {
			return nil, fmt.Errorf("network %s: signal with empty name", w.Name)
		}
		if _, dup := sigs[ws.Name]; dup {
			return nil, fmt.Errorf("network %s: duplicate signal %s", w.Name, ws.Name)
		}
		sigs[ws.Name] = net.NewSignal(ws.Name, ws.Pure)
	}
	for i := range w.Machines {
		c, err := decodeMachine(&w.Machines[i], sigs)
		if err != nil {
			return nil, fmt.Errorf("network %s: machine %s: %w", w.Name, w.Machines[i].Name, err)
		}
		if err := net.Add(c); err != nil {
			return nil, err
		}
	}
	if err := net.Validate(); err != nil {
		return nil, err
	}
	return net, nil
}

func decodeMachine(w *WireMachine, sigs map[string]*cfsm.Signal) (*cfsm.CFSM, error) {
	if w.Name == "" {
		return nil, fmt.Errorf("machine with empty name")
	}
	c := cfsm.New(w.Name)
	for _, name := range w.Inputs {
		s, ok := sigs[name]
		if !ok {
			return nil, fmt.Errorf("unknown input signal %q", name)
		}
		c.AttachInput(s)
	}
	for _, name := range w.Outputs {
		s, ok := sigs[name]
		if !ok {
			return nil, fmt.Errorf("unknown output signal %q", name)
		}
		c.AttachOutput(s)
	}
	states := make(map[string]*cfsm.StateVar, len(w.States))
	for _, ws := range w.States {
		if _, dup := states[ws.Name]; dup {
			return nil, fmt.Errorf("duplicate state variable %q", ws.Name)
		}
		states[ws.Name] = c.AddState(ws.Name, ws.Domain, ws.Init)
	}
	tests := make([]*cfsm.Test, len(w.Tests))
	for i, wt := range w.Tests {
		switch wt.Kind {
		case "present":
			s, ok := sigs[wt.Signal]
			if !ok {
				return nil, fmt.Errorf("test %d: unknown signal %q", i, wt.Signal)
			}
			tests[i] = c.Present(s)
		case "pred":
			e, err := decodeExpr(wt.Pred)
			if err != nil {
				return nil, fmt.Errorf("test %d: %w", i, err)
			}
			tests[i] = c.Pred(e)
		case "sel":
			v, ok := states[wt.Sel]
			if !ok {
				return nil, fmt.Errorf("test %d: unknown state variable %q", i, wt.Sel)
			}
			if v.Domain < 2 {
				return nil, fmt.Errorf("test %d: selector on %q needs a domain of at least 2, has %d", i, wt.Sel, v.Domain)
			}
			tests[i] = c.Sel(v)
		default:
			return nil, fmt.Errorf("test %d: unknown kind %q", i, wt.Kind)
		}
		if c.TestID(tests[i]) != i {
			return nil, fmt.Errorf("test %d duplicates test %d", i, c.TestID(tests[i]))
		}
	}
	actions := make([]*cfsm.Action, len(w.Actions))
	for i, wa := range w.Actions {
		switch wa.Kind {
		case "emit":
			s, ok := sigs[wa.Signal]
			if !ok {
				return nil, fmt.Errorf("action %d: unknown signal %q", i, wa.Signal)
			}
			if wa.Value != nil {
				e, err := decodeExpr(wa.Value)
				if err != nil {
					return nil, fmt.Errorf("action %d: %w", i, err)
				}
				actions[i] = c.EmitV(s, e)
			} else {
				actions[i] = c.Emit(s)
			}
		case "assign":
			v, ok := states[wa.Var]
			if !ok {
				return nil, fmt.Errorf("action %d: unknown state variable %q", i, wa.Var)
			}
			e, err := decodeExpr(wa.Expr)
			if err != nil {
				return nil, fmt.Errorf("action %d: %w", i, err)
			}
			actions[i] = c.Assign(v, e)
		default:
			return nil, fmt.Errorf("action %d: unknown kind %q", i, wa.Kind)
		}
		if c.ActionID(actions[i]) != i {
			return nil, fmt.Errorf("action %d duplicates action %d", i, c.ActionID(actions[i]))
		}
	}
	for ti, wt := range w.Trans {
		guard := make([]cfsm.Cond, len(wt.Guard))
		for gi, g := range wt.Guard {
			if g.Test < 0 || g.Test >= len(tests) {
				return nil, fmt.Errorf("transition %d: test index %d out of range", ti, g.Test)
			}
			guard[gi] = cfsm.On(tests[g.Test], g.Val)
		}
		acts := make([]*cfsm.Action, len(wt.Actions))
		for ai, id := range wt.Actions {
			if id < 0 || id >= len(actions) {
				return nil, fmt.Errorf("transition %d: action index %d out of range", ti, id)
			}
			acts[ai] = actions[id]
		}
		c.AddTransition(guard, acts...)
	}
	for gi, grp := range w.Exclusive {
		ts := make([]*cfsm.Test, len(grp))
		for i, id := range grp {
			if id < 0 || id >= len(tests) {
				return nil, fmt.Errorf("exclusive group %d: test index %d out of range", gi, id)
			}
			ts[i] = tests[id]
		}
		c.MarkExclusive(ts...)
	}
	return c, nil
}
