package sgraph

import (
	"fmt"

	"polis/internal/bdd"
	"polis/internal/cfsm"
	"polis/internal/mvar"
	"polis/internal/names"
)

// Ordering selects how the characteristic-function variables are
// ordered before procedure build runs (Section III-B3).
type Ordering int

// Ordering strategies, matching the rows of Table II. The zero value
// is the paper's default and best configuration, so zero-valued
// options do the right thing.
const (
	// OrderSiftAfterSupport sifts dynamically with each output
	// constrained only after its own support — the paper's default.
	OrderSiftAfterSupport Ordering = iota
	// OrderNaive keeps the declaration order (all tests first, then
	// all actions) with no dynamic reordering.
	OrderNaive
	// OrderSiftInputsFirst sifts dynamically with all outputs
	// constrained after all inputs.
	OrderSiftInputsFirst
)

// orderingNames is the name table of the orderings, indexed by
// Ordering.
var orderingNames = []string{
	OrderSiftAfterSupport: "default",
	OrderNaive:            "naive",
	OrderSiftInputsFirst:  "inputs-first",
}

// ParseOrdering resolves an ordering by name: "default", "naive" or
// "inputs-first"; "sift" also names the default.
func ParseOrdering(name string) (Ordering, error) {
	if name == "sift" {
		return OrderSiftAfterSupport, nil
	}
	return names.Parse[Ordering]("ordering", orderingNames, name)
}

// Name returns the name ParseOrdering resolves to o, or "" for a value
// outside the table.
func (o Ordering) Name() string { return names.Name(orderingNames, o) }

func (o Ordering) String() string {
	switch o {
	case OrderNaive:
		return "naive"
	case OrderSiftInputsFirst:
		return "sift-inputs-first"
	default:
		return "sift-after-support"
	}
}

// Build runs the paper's procedure build (Section III-B2): it sifts
// the characteristic-function BDD according to the requested ordering
// and then recursively constructs the s-graph by Shannon cofactoring,
// memoising on the residual BDD node so that isomorphic subgraphs are
// shared exactly as the reduce step requires. The resulting s-graph
// computes the CFSM transition function (Theorem 1): each input test
// appears at most once per path and ASSIGN vertices carry only actions.
func Build(r *cfsm.Reactive, ord Ordering) (*SGraph, error) {
	if err := ApplyOrdering(r, ord); err != nil {
		return nil, err
	}
	return FromChi(r)
}

// ApplyOrdering runs the sifting step of procedure build alone: it
// reorders the characteristic-function BDD according to the requested
// strategy, leaving the s-graph construction to FromChi. Splitting the
// two lets callers (the synthesis pipeline) attribute wall time to the
// reordering and construction stages separately.
func ApplyOrdering(r *cfsm.Reactive, ord Ordering) error {
	switch ord {
	case OrderNaive:
		// Declaration order already places every output after all
		// inputs; nothing to do.
	case OrderSiftInputsFirst:
		r.SiftOutputsAfterAllInputs()
	case OrderSiftAfterSupport:
		r.SiftOutputsAfterSupport()
	default:
		return fmt.Errorf("sgraph: unknown ordering %d", ord)
	}
	return nil
}

// FromChi constructs the s-graph from the characteristic function
// under the BDD's current variable order, which must place each output
// variable below every input in its support. It returns an error if
// the order violates that requirement (the value of an output would
// still depend on untested inputs).
func FromChi(r *cfsm.Reactive) (*SGraph, error) {
	g := &SGraph{C: r.C}
	g.Begin = g.newVertex(Begin)
	g.End = g.newVertex(End)

	s := r.Space
	testOf := make(map[*mvar.MV]*cfsm.Test, len(r.TestVars))
	for i, v := range r.TestVars {
		testOf[v] = r.C.Tests[i]
	}
	actionOf := make(map[*mvar.MV]*cfsm.Action, len(r.ActVars))
	for i, v := range r.ActVars {
		actionOf[v] = r.C.Actions[i]
	}

	memo := make(map[bdd.Node]*Vertex)
	var build func(f bdd.Node) (*Vertex, error)
	build = func(f bdd.Node) (*Vertex, error) {
		if f == bdd.True {
			return g.End, nil
		}
		if f == bdd.False {
			return nil, fmt.Errorf("sgraph: characteristic function unsatisfiable on some path (CFSM %s)", r.C.Name)
		}
		if v, ok := memo[f]; ok {
			return v, nil
		}
		top := s.Top(f)
		if t, ok := testOf[top]; ok {
			// Input: a TEST vertex with one child per outcome.
			v := g.newVertex(Test)
			v.Tests = []*cfsm.Test{t}
			v.Children = make([]*Vertex, t.Arity())
			for val := 0; val < t.Arity(); val++ {
				child, err := build(s.CofactorValue(f, top, val))
				if err != nil {
					return nil, err
				}
				v.Children[val] = child
			}
			// Degenerate TEST (all children equal) can only arise
			// for selectors whose domain is not a power of two;
			// keep it, since the object code must still decode the
			// state value.
			memo[f] = v
			return v, nil
		}
		a, ok := actionOf[top]
		if !ok {
			return nil, fmt.Errorf("sgraph: BDD variable not owned by a test or action")
		}
		f0 := s.CofactorValue(f, top, 0)
		f1 := s.CofactorValue(f, top, 1)
		switch {
		case f0 == bdd.False && f1 != bdd.False:
			// Action fires: emit an ASSIGN vertex.
			v := g.newVertex(Assign)
			v.Action = a
			next, err := build(f1)
			if err != nil {
				return nil, err
			}
			v.Next = next
			memo[f] = v
			return v, nil
		case f1 == bdd.False && f0 != bdd.False:
			// Action does not fire: the cheapest implementation is
			// no code at all (the paper's "no assignment" option).
			v, err := build(f0)
			if err != nil {
				return nil, err
			}
			memo[f] = v
			return v, nil
		default:
			return nil, fmt.Errorf(
				"sgraph: output %s still depends on untested inputs; ordering violates outputs-after-support (CFSM %s)",
				a.Name(), r.C.Name)
		}
	}
	first, err := build(r.Chi)
	if err != nil {
		return nil, err
	}
	g.Begin.Next = first
	return g, nil
}
