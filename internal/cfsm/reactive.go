package cfsm

import (
	"fmt"

	"polis/internal/bdd"
	"polis/internal/mvar"
)

// Reactive is the Boolean reactive function of a CFSM (Section III-B1
// of the paper): the multi-output function from test outcomes x to
// action-selection flags z, represented by the BDD of its
// characteristic function
//
//	chi(x, z) = AND_j ( z_j <-> f_j(x) )
//
// where f_j(x) is the disjunction of the guards of the transitions
// containing action j. Each test is one (possibly multi-valued) Input
// variable; each action is one Boolean Output variable.
//
// Sifting consumes ActFuncs: both Sift methods unprotect them and
// reset them to nil, so the reordering carries the characteristic
// function alone and the BDD kernel can free every
// node that dies during a swap (see bdd's siftcost.go). After sifting
// only Chi is valid; take Supports first if the firing functions are
// still needed.
type Reactive struct {
	C        *CFSM
	Space    *mvar.Space
	TestVars []*mvar.MV // parallel to C.Tests
	ActVars  []*mvar.MV // parallel to C.Actions
	Chi      bdd.Node
	// ActFuncs[j] = f_j(x), the firing condition of action j. Nil
	// after sifting.
	ActFuncs []bdd.Node
}

// BuildReactive extracts the reactive function of c into a fresh
// multi-valued BDD space. Variables are created in declaration order:
// first all tests, then all actions — the "initial arbitrary ordering"
// of the paper's procedure build; call one of the Sift methods to
// optimise it.
func BuildReactive(c *CFSM) (*Reactive, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	s := mvar.NewSpace()
	r := &Reactive{C: c, Space: s}
	for _, t := range c.Tests {
		r.TestVars = append(r.TestVars, s.NewMV(t.Name(), t.Arity(), mvar.Input))
	}
	for _, a := range c.Actions {
		r.ActVars = append(r.ActVars, s.NewMV(a.Name(), 2, mvar.Output))
	}
	m := s.M

	// f_j(x): disjunction of guards of transitions using action j.
	r.ActFuncs = make([]bdd.Node, len(c.Actions))
	for j := range r.ActFuncs {
		r.ActFuncs[j] = bdd.False
	}
	for _, tr := range c.Trans {
		g := bdd.True
		for _, cond := range tr.Guard {
			g = m.And(g, s.Eq(r.TestVars[cond.Test.id], cond.Val))
		}
		for _, a := range tr.Actions {
			r.ActFuncs[a.id] = m.Or(r.ActFuncs[a.id], g)
		}
	}

	chi := bdd.True
	for j, f := range r.ActFuncs {
		z := s.Eq(r.ActVars[j], 1)
		chi = m.And(chi, m.Xnor(z, f))
	}
	r.Chi = chi
	m.Protect(chi)
	for _, f := range r.ActFuncs {
		m.Protect(f)
	}
	return r, nil
}

// Supports returns, for each action variable, the input variables its
// firing function depends on. This feeds the sifting constraint
// "no output can sift before any input in its support".
func (r *Reactive) Supports() map[*mvar.MV][]*mvar.MV {
	out := make(map[*mvar.MV][]*mvar.MV, len(r.ActVars))
	for j, f := range r.ActFuncs {
		out[r.ActVars[j]] = r.Space.Support(f)
	}
	return out
}

// SiftOutputsAfterSupport optimises the variable order by dynamic
// sifting under the paper's default constraint (each output after its
// own support). This is the configuration the paper reports best
// results with (Table II, second row). It consumes ActFuncs (see
// Reactive).
func (r *Reactive) SiftOutputsAfterSupport() {
	if r.ActFuncs == nil {
		// Supports would come back empty and the sift unconstrained.
		panic("cfsm: SiftOutputsAfterSupport on a Reactive that was already sifted")
	}
	sup := r.Supports()
	r.dropNonChiRoots()
	r.Space.SiftOutputsAfterSupport(sup, r.Chi)
}

// SiftOutputsAfterAllInputs optimises with the stronger restriction
// that all outputs appear after all inputs (Table II, first row). It
// consumes ActFuncs (see Reactive).
func (r *Reactive) SiftOutputsAfterAllInputs() {
	r.dropNonChiRoots()
	r.Space.SiftOutputsAfterAllInputs(r.Chi)
}

// dropNonChiRoots unprotects the firing functions, leaving Chi the
// only protected root, so sifting neither reorders them nor keeps
// their nodes alive.
func (r *Reactive) dropNonChiRoots() {
	m := r.Space.M
	for _, f := range r.ActFuncs {
		m.Unprotect(f)
	}
	r.ActFuncs = nil
}

// ActionSetFor computes the unique action flags satisfying chi for the
// given test outcomes. The characteristic function of a deterministic
// complete CFSM determines them uniquely.
func (r *Reactive) ActionSetFor(testVals []int) ([]bool, error) {
	f := r.Chi
	for i, v := range testVals {
		f = r.Space.CofactorValue(f, r.TestVars[i], v)
	}
	out := make([]bool, len(r.ActVars))
	for j := range r.ActVars {
		f0 := r.Space.CofactorValue(f, r.ActVars[j], 0)
		f1 := r.Space.CofactorValue(f, r.ActVars[j], 1)
		switch {
		case f0 == bdd.False && f1 != bdd.False:
			out[j] = true
			f = f1
		case f1 == bdd.False && f0 != bdd.False:
			out[j] = false
			f = f0
		case f0 == bdd.False && f1 == bdd.False:
			return nil, fmt.Errorf("cfsm: chi unsatisfiable for %v", testVals)
		default:
			// Don't care: the paper picks the cheapest option,
			// no assignment.
			out[j] = false
			f = f0
		}
	}
	return out, nil
}
