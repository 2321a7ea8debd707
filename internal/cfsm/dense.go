package cfsm

import (
	"fmt"

	"polis/internal/expr"
)

// This file is the dense (index-addressed) execution layer of the CFSM
// model, added for the high-throughput simulation engine. The map-based
// Snapshot/React API remains the reference semantics; the dense layer
// is an allocation-free equivalent: signal and state-variable slots are
// resolved to integer indices once, at Layout construction, and every
// reaction then runs over flat arrays that the caller reuses. The two
// implementations are kept in lock-step by the simulator's golden
// tests, whose behavioral outcomes were recorded from an engine that
// ran React, and by the netfuzz harness, which compares behavioral
// runs with VMExact runs cross-checked against React
// (sim.CheckOptions.VMAgainstReference).

// Layout resolves one machine's signals, state variables, tests and
// actions to dense slot indices. Build it once per runtime task with
// NewLayout; it is immutable afterwards and may be shared by snapshots
// of the same machine.
type Layout struct {
	C      *CFSM
	Ins    []*Signal   // input slots, in declaration order
	States []*StateVar // state slots, in declaration order

	inIdx map[*Signal]int
	stIdx map[*StateVar]int

	tests []denseTest // indexed by Test id
	acts  []int       // ActAssign state slot per Action id (-1 for emits)
}

type denseTest struct {
	kind TestKind
	slot int // input slot (presence) or state slot (selector)
	pred expr.Expr
	sel  *StateVar // selector variable, for diagnostics
}

// NewLayout builds the dense layout of a machine.
func NewLayout(c *CFSM) *Layout {
	l := &Layout{
		C:      c,
		Ins:    c.Inputs,
		States: c.States,
		inIdx:  make(map[*Signal]int, len(c.Inputs)),
		stIdx:  make(map[*StateVar]int, len(c.States)),
	}
	for i, s := range c.Inputs {
		if _, dup := l.inIdx[s]; !dup {
			l.inIdx[s] = i
		}
	}
	for i, v := range c.States {
		l.stIdx[v] = i
	}
	l.tests = make([]denseTest, len(c.Tests))
	for id, t := range c.Tests {
		dt := denseTest{kind: t.Kind}
		switch t.Kind {
		case TestPresence:
			dt.slot = l.inIdx[t.Signal]
		case TestPredicate:
			dt.pred = t.Pred
		case TestSelector:
			dt.slot = l.stIdx[t.Sel]
			dt.sel = t.Sel
		}
		l.tests[id] = dt
	}
	l.acts = make([]int, len(c.Actions))
	for id, a := range c.Actions {
		l.acts[id] = -1
		if a.Kind == ActAssign {
			l.acts[id] = l.stIdx[a.Var]
		}
	}
	return l
}

// InSlot returns the dense slot of an input signal, or -1 when the
// signal is not an input of the machine.
func (l *Layout) InSlot(s *Signal) int {
	if i, ok := l.inIdx[s]; ok {
		return i
	}
	return -1
}

// StateSlot returns the dense slot of a state variable, or -1.
func (l *Layout) StateSlot(v *StateVar) int {
	if i, ok := l.stIdx[v]; ok {
		return i
	}
	return -1
}

// DenseSnapshot is the flat-array form of Snapshot: Present/Values are
// indexed by input slot, State by state slot. Values of absent signals
// are zero, matching the map form where absent signals have no Values
// entry and read as 0.
type DenseSnapshot struct {
	Lay     *Layout
	Present []bool
	Values  []int64
	State   []int64

	env expr.Env // prebuilt interface value: no per-Eval conversion alloc
}

// NewDense returns an empty dense snapshot with state at initial
// values.
func (l *Layout) NewDense() *DenseSnapshot {
	d := &DenseSnapshot{
		Lay:     l,
		Present: make([]bool, len(l.Ins)),
		Values:  make([]int64, len(l.Ins)),
		State:   make([]int64, len(l.States)),
	}
	for i, v := range l.States {
		d.State[i] = v.Init
	}
	d.env = denseEnv{d}
	return d
}

// Env adapts the snapshot to expression evaluation without allocating:
// the interface value is built once at NewDense.
func (d *DenseSnapshot) Env() expr.Env { return d.env }

type denseEnv struct{ d *DenseSnapshot }

// Lookup resolves state variables by name and input event values as
// "?name", like the map-based snapEnv. The linear scans mirror the map
// iterations of the reference implementation; machine interfaces are
// small, so they beat hashing and stay allocation-free.
func (e denseEnv) Lookup(name string) int64 {
	d := e.d
	if len(name) > 0 && name[0] == '?' {
		want := name[1:]
		for i, s := range d.Lay.Ins {
			if s.Name == want {
				return d.Values[i]
			}
		}
		return 0
	}
	for i, v := range d.Lay.States {
		if v.Name == name {
			return d.State[i]
		}
	}
	return 0
}

// EvalTest returns the outcome of a test under the dense snapshot,
// equivalent to Snapshot.EvalTest.
func (d *DenseSnapshot) EvalTest(t *Test) int {
	dt := &d.Lay.tests[t.id]
	switch dt.kind {
	case TestPresence:
		if d.Present[dt.slot] {
			return 1
		}
		return 0
	case TestPredicate:
		if dt.pred.Eval(d.env) != 0 {
			return 1
		}
		return 0
	default:
		v := d.State[dt.slot]
		if v < 0 || v >= int64(dt.sel.Domain) {
			panic(fmt.Sprintf("cfsm: state %s=%d out of domain %d", dt.sel.Name, v, dt.sel.Domain))
		}
		return int(v)
	}
}

// Snapshot materialises the map form, for probes and differential
// checks. Present/Values carry entries only for present signals,
// exactly as rtos.Task.begin builds them.
func (d *DenseSnapshot) Snapshot() Snapshot {
	snap := Snapshot{
		Present: make(map[*Signal]bool, len(d.Present)),
		Values:  make(map[*Signal]int64, len(d.Present)),
		State:   make(map[*StateVar]int64, len(d.State)),
	}
	for i, p := range d.Present {
		if p {
			snap.Present[d.Lay.Ins[i]] = true
			snap.Values[d.Lay.Ins[i]] = d.Values[i]
		}
	}
	for i, v := range d.Lay.States {
		snap.State[v] = d.State[i]
	}
	return snap
}

// DenseReaction is the reusable result buffer of a dense reaction.
// Emitted and NextState keep their capacity across reactions.
type DenseReaction struct {
	Fired     bool
	Emitted   []Emission
	NextState []int64 // indexed by state slot
}

// Reaction materialises the map form, for probes and differential
// checks.
func (r *DenseReaction) Reaction(l *Layout) Reaction {
	out := Reaction{Fired: r.Fired, NextState: make(map[*StateVar]int64, len(r.NextState))}
	if len(r.Emitted) > 0 {
		out.Emitted = append([]Emission(nil), r.Emitted...)
	}
	for i, v := range l.States {
		out.NextState[v] = r.NextState[i]
	}
	return out
}

// ReactInto executes one reaction under the dense snapshot, writing the
// result into out without allocating (beyond out's amortised buffer
// growth). The semantics are exactly CFSM.React: the first matching
// transition fires, all expression reads see the pre-reaction state
// (copy-on-entry), and Fired reports whether any action executed.
func (l *Layout) ReactInto(d *DenseSnapshot, out *DenseReaction) {
	out.Fired = false
	out.Emitted = out.Emitted[:0]
	out.NextState = append(out.NextState[:0], d.State...)
	for _, tr := range l.C.Trans {
		match := true
		for _, cond := range tr.Guard {
			if d.EvalTest(cond.Test) != cond.Val {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		out.Fired = len(tr.Actions) > 0
		for _, a := range tr.Actions {
			switch a.Kind {
			case ActEmit:
				em := Emission{Signal: a.Signal}
				if a.Value != nil {
					em.Value = a.Value.Eval(d.env)
				}
				out.Emitted = append(out.Emitted, em)
			case ActAssign:
				out.NextState[l.acts[a.id]] = a.Expr.Eval(d.env)
			}
		}
		return
	}
}
