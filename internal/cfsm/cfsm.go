// Package cfsm implements the Codesign Finite State Machine model of
// Chiodo et al. used by the POLIS co-design flow: extended FSMs that
// receive an atomic snapshot of input events (locally synchronous),
// react by emitting output events and updating state, and communicate
// through one-place event buffers in a globally asynchronous network.
//
// Following Section III-B1 of the paper, a CFSM transition function is
// represented as a composition of
//
//   - a set of *tests* on input and state variables,
//   - a set of *actions* (output emissions and state assignments), and
//   - the *reactive function* mapping test outcomes to action subsets,
//     represented by its characteristic function (see reactive.go).
package cfsm

import (
	"encoding/binary"
	"fmt"
	"strings"

	"polis/internal/expr"
)

// Signal is an event channel between CFSMs or between a CFSM and its
// environment. A pure signal carries no value; a valued signal carries
// one bounded integer updated by the emitter.
type Signal struct {
	Name string
	Pure bool
}

// StateVar is an internal variable of a CFSM, persisting across
// reactions. A control variable has a small finite Domain (> 0) and
// can be tested with a multi-way selector; a data variable
// (Domain == 0) holds a bounded integer tested through predicates.
type StateVar struct {
	Name   string
	Domain int // number of values for control vars; 0 for data vars
	Init   int64
}

// TestKind classifies the primitive tests of a CFSM.
type TestKind int

// Test kinds.
const (
	TestPresence  TestKind = iota // is event present in the snapshot?
	TestPredicate                 // relational/arithmetic predicate, 0/1
	TestSelector                  // multi-way branch on a control state var
)

// Test is a primitive decision of the reactive function. Each test
// becomes one (possibly multi-valued) input variable of the
// characteristic function and one TEST vertex flavour in the s-graph.
type Test struct {
	Kind   TestKind
	Signal *Signal   // TestPresence
	Pred   expr.Expr // TestPredicate
	Sel    *StateVar // TestSelector
	id     int
}

// Arity returns the number of outcomes of the test.
func (t *Test) Arity() int {
	if t.Kind == TestSelector {
		return t.Sel.Domain
	}
	return 2
}

// Name returns a diagnostic name for the test.
func (t *Test) Name() string {
	switch t.Kind {
	case TestPresence:
		return "present_" + t.Signal.Name
	case TestPredicate:
		var b strings.Builder
		b.WriteString("pred{")
		expr.WriteC(&b, t.Pred, nil)
		b.WriteByte('}')
		return b.String()
	default:
		return "sel_" + t.Sel.Name
	}
}

// AppendKey appends the structural key of t to b: its kind, then the
// signal's length-prefixed name, the predicate's expr.AppendKey, or
// the selector variable's name and domain. Keys are prefix-free, and
// two tests are the same decision exactly when their keys are equal:
// the CFSM interns its tests by key, the s-graph reduction shares and
// collapses by it, and the cache fingerprint writes it into its
// stream, so changing the encoding changes every cache key.
func (t *Test) AppendKey(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(t.Kind))
	switch t.Kind {
	case TestPresence:
		return expr.AppendString(b, t.Signal.Name)
	case TestPredicate:
		return expr.AppendKey(b, t.Pred)
	default:
		return binary.AppendVarint(expr.AppendString(b, t.Sel.Name), int64(t.Sel.Domain))
	}
}

// Same reports whether t and u are the same test: the same pointer,
// or equal keys (as equal tests allocated apart have).
func (t *Test) Same(u *Test) bool {
	var tb, ub [64]byte
	return t == u || string(t.AppendKey(tb[:0])) == string(u.AppendKey(ub[:0]))
}

// ActionKind classifies the primitive actions.
type ActionKind int

// Action kinds.
const (
	ActEmit   ActionKind = iota // emit an output event (with optional value)
	ActAssign                   // assign an expression to a state variable
)

// Action is a primitive effect selected by the reactive function. Each
// action becomes one Boolean output variable of the characteristic
// function and one ASSIGN vertex flavour in the s-graph.
type Action struct {
	Kind   ActionKind
	Signal *Signal   // ActEmit
	Value  expr.Expr // ActEmit value (nil for pure signals)
	Var    *StateVar // ActAssign
	Expr   expr.Expr // ActAssign right-hand side
	id     int
}

// Name returns a diagnostic name for the action.
func (a *Action) Name() string {
	if a.Kind == ActEmit && a.Value == nil {
		return "emit_" + a.Signal.Name
	}
	var b strings.Builder
	if a.Kind == ActEmit {
		b.WriteString("emit_")
		b.WriteString(a.Signal.Name)
		b.WriteByte('(')
		expr.WriteC(&b, a.Value, nil)
		b.WriteByte(')')
	} else {
		b.WriteString(a.Var.Name)
		b.WriteString(":=")
		expr.WriteC(&b, a.Expr, nil)
	}
	return b.String()
}

// AppendKey appends the structural key of a to b, as Test.AppendKey
// does for tests: its kind, the length-prefixed name of the emitted
// signal or assigned variable, then the expr.AppendKey of the value
// (nil for a pure emission) or right-hand side.
func (a *Action) AppendKey(b []byte) []byte {
	b = binary.AppendUvarint(b, uint64(a.Kind))
	if a.Kind == ActEmit {
		return expr.AppendKey(expr.AppendString(b, a.Signal.Name), a.Value)
	}
	return expr.AppendKey(expr.AppendString(b, a.Var.Name), a.Expr)
}

// Same reports whether a and o are the same action: the same pointer,
// or equal keys.
func (a *Action) Same(o *Action) bool {
	var ab, ob [64]byte
	return a == o || string(a.AppendKey(ab[:0])) == string(o.AppendKey(ob[:0]))
}

// Cond requires a test to have a particular outcome: 0/1 for Boolean
// tests, a domain value for selectors.
type Cond struct {
	Test *Test
	Val  int
}

// Transition fires when all its conditions hold, executing its actions
// in order. The emission order within a transition is the static order
// chosen at specification time, as the paper's synthesis fixes it.
type Transition struct {
	Guard   []Cond
	Actions []*Action
}

// CFSM is one codesign finite state machine.
type CFSM struct {
	Name    string
	Inputs  []*Signal
	Outputs []*Signal
	States  []*StateVar
	Tests   []*Test
	Actions []*Action
	Trans   []*Transition

	// Exclusive lists groups of Boolean tests of which at most one
	// can be true in any snapshot (e.g. the predicates x==0, x==1,
	// x==2 over one variable). The information refines determinism
	// checking and drives the paper's false-path analysis ("event
	// incompatibility relations", Section III-C).
	Exclusive [][]*Test

	testDedup map[string]*Test
	actDedup  map[string]*Action
}

// New creates an empty CFSM.
func New(name string) *CFSM {
	return &CFSM{
		Name:      name,
		testDedup: make(map[string]*Test),
		actDedup:  make(map[string]*Action),
	}
}

// AddInput declares an input signal.
func (c *CFSM) AddInput(name string, pure bool) *Signal {
	s := &Signal{Name: name, Pure: pure}
	c.Inputs = append(c.Inputs, s)
	return s
}

// AddOutput declares an output signal.
func (c *CFSM) AddOutput(name string, pure bool) *Signal {
	s := &Signal{Name: name, Pure: pure}
	c.Outputs = append(c.Outputs, s)
	return s
}

// AddState declares a state variable; domain > 0 makes it a control
// variable usable in selector tests.
func (c *CFSM) AddState(name string, domain int, init int64) *StateVar {
	v := &StateVar{Name: name, Domain: domain, Init: init}
	c.States = append(c.States, v)
	return v
}

// internTest returns the CFSM's test with t's key, adding t if it
// has none.
func (c *CFSM) internTest(t *Test) *Test {
	var buf [64]byte
	key := t.AppendKey(buf[:0])
	if old, ok := c.testDedup[string(key)]; ok {
		return old
	}
	t.id = len(c.Tests)
	c.Tests = append(c.Tests, t)
	c.testDedup[string(key)] = t
	return t
}

// internAction returns the CFSM's action with a's key, adding a if it
// has none.
func (c *CFSM) internAction(a *Action) *Action {
	var buf [64]byte
	key := a.AppendKey(buf[:0])
	if old, ok := c.actDedup[string(key)]; ok {
		return old
	}
	a.id = len(c.Actions)
	c.Actions = append(c.Actions, a)
	c.actDedup[string(key)] = a
	return a
}

// Present returns the presence test for an input signal.
func (c *CFSM) Present(s *Signal) *Test {
	return c.internTest(&Test{Kind: TestPresence, Signal: s})
}

// Pred returns the predicate test for a Boolean expression over state
// variables and input values (reference an input value as "?name").
func (c *CFSM) Pred(e expr.Expr) *Test {
	return c.internTest(&Test{Kind: TestPredicate, Pred: e})
}

// Sel returns the multi-way selector test on a control state variable.
func (c *CFSM) Sel(v *StateVar) *Test {
	if v.Domain < 2 {
		panic("cfsm: selector requires a control variable with domain >= 2")
	}
	return c.internTest(&Test{Kind: TestSelector, Sel: v})
}

// Emit returns the action emitting a pure output signal.
func (c *CFSM) Emit(s *Signal) *Action {
	return c.internAction(&Action{Kind: ActEmit, Signal: s})
}

// EmitV returns the action emitting a valued output signal.
func (c *CFSM) EmitV(s *Signal, v expr.Expr) *Action {
	return c.internAction(&Action{Kind: ActEmit, Signal: s, Value: v})
}

// Assign returns the action assigning e to state variable v.
func (c *CFSM) Assign(v *StateVar, e expr.Expr) *Action {
	return c.internAction(&Action{Kind: ActAssign, Var: v, Expr: e})
}

// AddTransition appends a transition with the given guard and actions.
func (c *CFSM) AddTransition(guard []Cond, actions ...*Action) *Transition {
	t := &Transition{Guard: guard, Actions: actions}
	c.Trans = append(c.Trans, t)
	return t
}

// On is a convenience constructor for guard conditions.
func On(t *Test, val int) Cond { return Cond{Test: t, Val: val} }

// TestID returns the index of t within the CFSM's test list.
func (c *CFSM) TestID(t *Test) int { return t.id }

// ActionID returns the index of a within the CFSM's action list.
func (c *CFSM) ActionID(a *Action) int { return a.id }

// Validate checks structural sanity: guards reference interned tests,
// selector values lie in range, and no transition assigns the same
// state variable twice.
func (c *CFSM) Validate() error {
	for ti, tr := range c.Trans {
		assigned := make(map[*StateVar]bool)
		for _, cond := range tr.Guard {
			if cond.Test == nil {
				return fmt.Errorf("%s: transition %d: nil test", c.Name, ti)
			}
			if cond.Val < 0 || cond.Val >= cond.Test.Arity() {
				return fmt.Errorf("%s: transition %d: outcome %d out of range for %s",
					c.Name, ti, cond.Val, cond.Test.Name())
			}
			if cond.Test.id >= len(c.Tests) || c.Tests[cond.Test.id] != cond.Test {
				return fmt.Errorf("%s: transition %d: foreign test %s", c.Name, ti, cond.Test.Name())
			}
		}
		for _, a := range tr.Actions {
			if a.id >= len(c.Actions) || c.Actions[a.id] != a {
				return fmt.Errorf("%s: transition %d: foreign action %s", c.Name, ti, a.Name())
			}
			if a.Kind == ActAssign {
				if assigned[a.Var] {
					return fmt.Errorf("%s: transition %d assigns %s twice", c.Name, ti, a.Var.Name)
				}
				assigned[a.Var] = true
			}
		}
	}
	return nil
}

// Snapshot is one atomic input view of a CFSM: the set of present
// events, their values, and the current state.
type Snapshot struct {
	Present map[*Signal]bool
	Values  map[*Signal]int64
	State   map[*StateVar]int64
}

// NewSnapshot returns an empty snapshot with all state variables at
// their initial values.
func (c *CFSM) NewSnapshot() Snapshot {
	st := make(map[*StateVar]int64, len(c.States))
	for _, v := range c.States {
		st[v] = v.Init
	}
	return Snapshot{
		Present: make(map[*Signal]bool),
		Values:  make(map[*Signal]int64),
		State:   st,
	}
}

// Env adapts a snapshot to expression evaluation: state variables by
// name, input event values as "?name".
func (s Snapshot) Env() expr.Env { return snapEnv{s} }

type snapEnv struct{ s Snapshot }

func (e snapEnv) Lookup(name string) int64 {
	if len(name) > 0 && name[0] == '?' {
		for sig, v := range e.s.Values {
			if sig.Name == name[1:] {
				return v
			}
		}
		return 0
	}
	for v, val := range e.s.State {
		if v.Name == name {
			return val
		}
	}
	return 0
}

// EvalTest returns the outcome of a test under the snapshot.
func (s Snapshot) EvalTest(t *Test) int {
	switch t.Kind {
	case TestPresence:
		if s.Present[t.Signal] {
			return 1
		}
		return 0
	case TestPredicate:
		if t.Pred.Eval(s.Env()) != 0 {
			return 1
		}
		return 0
	default:
		v := s.State[t.Sel]
		if v < 0 || v >= int64(t.Sel.Domain) {
			panic(fmt.Sprintf("cfsm: state %s=%d out of domain %d", t.Sel.Name, v, t.Sel.Domain))
		}
		return int(v)
	}
}

// Emission records one emitted output event.
type Emission struct {
	Signal *Signal
	Value  int64 // meaningful only for valued signals
}

// Reaction is the result of one CFSM execution.
type Reaction struct {
	// Fired reports whether any action executed. The synthesized forms
	// of the machine (reactive function, s-graph, object code) encode a
	// reaction purely as action flags, so a matched transition with an
	// empty action list is indistinguishable from no match there; the
	// reference interpreter uses the same definition so that all
	// implementations agree on event consumption (Section IV-D).
	Fired     bool
	Emitted   []Emission
	NextState map[*StateVar]int64
}

// React executes one reaction under the given snapshot: the unique
// matching transition fires. All expression reads see the pre-reaction
// state (the paper's copy-on-entry semantics), so assignment order
// within a transition is immaterial. If no transition matches — or the
// matching transition performs no actions, which the synthesized forms
// cannot distinguish — Fired is false, no events are emitted and the
// state is unchanged (the RTOS then preserves the input events for the
// next execution).
func (c *CFSM) React(snap Snapshot) Reaction {
	next := make(map[*StateVar]int64, len(snap.State))
	for v, val := range snap.State {
		next[v] = val
	}
	r := Reaction{NextState: next}
	env := snap.Env()
	for _, tr := range c.Trans {
		match := true
		for _, cond := range tr.Guard {
			if snap.EvalTest(cond.Test) != cond.Val {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		r.Fired = len(tr.Actions) > 0
		for _, a := range tr.Actions {
			switch a.Kind {
			case ActEmit:
				em := Emission{Signal: a.Signal}
				if a.Value != nil {
					em.Value = a.Value.Eval(env)
				}
				r.Emitted = append(r.Emitted, em)
			case ActAssign:
				next[a.Var] = a.Expr.Eval(env)
			}
		}
		return r
	}
	return r
}

// MarkExclusive declares that at most one of the given Boolean tests
// can be true in any snapshot.
func (c *CFSM) MarkExclusive(tests ...*Test) {
	c.Exclusive = append(c.Exclusive, tests)
}

// CheckDeterministic verifies that no two transitions with different
// action sets can match the same snapshot, by checking that their
// guards conflict on some shared test or on a pair of mutually
// exclusive tests. Guards over disjoint, non-exclusive test sets
// always overlap.
func (c *CFSM) CheckDeterministic() error {
	for i := 0; i < len(c.Trans); i++ {
		for j := i + 1; j < len(c.Trans); j++ {
			if sameActions(c.Trans[i].Actions, c.Trans[j].Actions) {
				continue
			}
			if !c.guardsConflict(c.Trans[i].Guard, c.Trans[j].Guard) {
				return fmt.Errorf("%s: transitions %d and %d overlap with different actions",
					c.Name, i, j)
			}
		}
	}
	return nil
}

func sameActions(a, b []*Action) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func (c *CFSM) guardsConflict(a, b []Cond) bool {
	for _, ca := range a {
		for _, cb := range b {
			if ca.Test == cb.Test && ca.Val != cb.Val {
				return true
			}
			if ca.Test != cb.Test && ca.Val == 1 && cb.Val == 1 && c.exclusive(ca.Test, cb.Test) {
				return true
			}
		}
	}
	return false
}

func (c *CFSM) exclusive(s, t *Test) bool {
	for _, grp := range c.Exclusive {
		hasS, hasT := false, false
		for _, g := range grp {
			if g == s {
				hasS = true
			}
			if g == t {
				hasT = true
			}
		}
		if hasS && hasT {
			return true
		}
	}
	return false
}
