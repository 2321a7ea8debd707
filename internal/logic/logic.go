// Package logic implements the boolean-circuit code generation scheme
// the paper compares against: ordering the outputs of the reactive
// function *before* their support (Section III-B3c) yields an s-graph
// with no TEST vertices — a straight string of ASSIGN vertices whose
// labels are ITE functions, which is exactly how the Esterel v5
// compiler emits software from a logic network. The network here is
// extracted from the BDDs of the per-action firing functions by
// multiplexer decomposition with structural hashing (the sharing that
// Boolean networks offer over decision trees), then evaluated by
// branch-free straight-line code: every execution takes the same time,
// the property the paper notes matters for hard real-time systems.
package logic

import (
	"fmt"

	"polis/internal/bdd"
	"polis/internal/cfsm"
	"polis/internal/mvar"
)

// GateKind enumerates network node types.
type GateKind int

// Gate kinds.
const (
	GateConst GateKind = iota // value in Val
	GateInput                 // one bit of a test outcome
	GateIte                   // If ? Then : Else
)

// Gate is one node of the boolean network, in topological order within
// Network.Gates (inputs of a gate precede it).
type Gate struct {
	ID   int
	Kind GateKind

	Val bool // GateConst

	// GateInput: the test outcome bit. For Boolean tests Bit is 0 and
	// the input is the outcome itself; for selector tests Bit k is
	// bit k (0 = most significant) of the state value.
	Test *cfsm.Test
	Bit  int

	// GateIte.
	If, Then, Else *Gate
}

// Network is the combinational implementation of a CFSM's reactive
// function: one output gate per action.
type Network struct {
	C       *cfsm.CFSM
	Gates   []*Gate
	Inputs  []*Gate // the distinct input gates
	Outputs []*Gate // parallel to C.Actions
}

// Build extracts the network from the reactive function's per-action
// BDDs. Structural hashing merges isomorphic subcircuits across all
// outputs, the sharing advantage of this scheme.
func Build(r *cfsm.Reactive) (*Network, error) {
	n := &Network{C: r.C}
	gateCache := make(map[string]*Gate)
	intern := func(key string, mk func() *Gate) *Gate {
		if g, ok := gateCache[key]; ok {
			return g
		}
		g := mk()
		g.ID = len(n.Gates)
		n.Gates = append(n.Gates, g)
		gateCache[key] = g
		return g
	}
	constGate := func(v bool) *Gate {
		return intern(fmt.Sprintf("c%v", v), func() *Gate { return &Gate{Kind: GateConst, Val: v} })
	}
	inputGate := func(t *cfsm.Test, bit int) *Gate {
		return intern(fmt.Sprintf("i%d.%d", r.C.TestID(t), bit), func() *Gate {
			g := &Gate{Kind: GateInput, Test: t, Bit: bit}
			n.Inputs = append(n.Inputs, g)
			return g
		})
	}

	// Map BDD bits back to (test, bit index).
	s := r.Space
	bitOf := make(map[bdd.Var]struct {
		t   *cfsm.Test
		bit int
	})
	for i, v := range r.TestVars {
		for k, b := range v.Bits {
			bitOf[b] = struct {
				t   *cfsm.Test
				bit int
			}{r.C.Tests[i], k}
		}
	}

	memo := make(map[bdd.Node]*Gate)
	var decompose func(f bdd.Node) (*Gate, error)
	decompose = func(f bdd.Node) (*Gate, error) {
		switch f {
		case bdd.False:
			return constGate(false), nil
		case bdd.True:
			return constGate(true), nil
		}
		if g, ok := memo[f]; ok {
			return g, nil
		}
		v := s.M.VarOf(f)
		ib, ok := bitOf[v]
		if !ok {
			return nil, fmt.Errorf("logic: firing function depends on a non-test variable")
		}
		lo, hi := s.M.LowHigh(f)
		gLo, err := decompose(lo)
		if err != nil {
			return nil, err
		}
		gHi, err := decompose(hi)
		if err != nil {
			return nil, err
		}
		in := inputGate(ib.t, ib.bit)
		g := intern(fmt.Sprintf("t%d?%d:%d", in.ID, gHi.ID, gLo.ID), func() *Gate {
			return &Gate{Kind: GateIte, If: in, Then: gHi, Else: gLo}
		})
		memo[f] = g
		return g, nil
	}
	for _, f := range r.ActFuncs {
		g, err := decompose(f)
		if err != nil {
			return nil, err
		}
		n.Outputs = append(n.Outputs, g)
	}
	return n, nil
}

// Stats describes a network.
type Stats struct {
	Gates  int
	Inputs int
	Ites   int
}

// ComputeStats counts the network's gates.
func (n *Network) ComputeStats() Stats {
	st := Stats{Gates: len(n.Gates), Inputs: len(n.Inputs)}
	for _, g := range n.Gates {
		if g.Kind == GateIte {
			st.Ites++
		}
	}
	return st
}

// inputValue evaluates one input gate under a snapshot.
func inputValue(g *Gate, snap cfsm.Snapshot) bool {
	out := snap.EvalTest(g.Test)
	if g.Test.Kind != cfsm.TestSelector {
		return out != 0
	}
	nb := mvar.BitsFor(g.Test.Sel.Domain)
	return out&(1<<(nb-1-g.Bit)) != 0
}

// Evaluate executes the network under a snapshot, mirroring the
// three-phase discipline of Section III-B1: all inputs are sampled,
// all gates evaluate, then the selected actions run in declaration
// order against the pre-reaction state.
func (n *Network) Evaluate(snap cfsm.Snapshot) cfsm.Reaction {
	vals := make([]bool, len(n.Gates))
	for _, g := range n.Gates {
		switch g.Kind {
		case GateConst:
			vals[g.ID] = g.Val
		case GateInput:
			vals[g.ID] = inputValue(g, snap)
		case GateIte:
			if vals[g.If.ID] {
				vals[g.ID] = vals[g.Then.ID]
			} else {
				vals[g.ID] = vals[g.Else.ID]
			}
		}
	}
	next := make(map[*cfsm.StateVar]int64, len(snap.State))
	for v, val := range snap.State {
		next[v] = val
	}
	r := cfsm.Reaction{NextState: next}
	env := snap.Env()
	for j, og := range n.Outputs {
		if !vals[og.ID] {
			continue
		}
		r.Fired = true
		a := n.C.Actions[j]
		switch a.Kind {
		case cfsm.ActEmit:
			em := cfsm.Emission{Signal: a.Signal}
			if a.Value != nil {
				em.Value = a.Value.Eval(env)
			}
			r.Emitted = append(r.Emitted, em)
		case cfsm.ActAssign:
			next[a.Var] = a.Expr.Eval(env)
		}
	}
	return r
}
