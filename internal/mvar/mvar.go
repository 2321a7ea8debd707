// Package mvar layers multi-valued variables on top of the binary
// internal/bdd engine. A multi-valued variable with n possible values
// is encoded onto ceil(log2 n) Boolean variables that are bound into
// one reordering group, so dynamic sifting moves the whole variable as
// a unit and the encoding bits never interleave with other variables.
//
// The POLIS flow uses multi-valued variables for CFSM state variables
// and for the multi-way decision points of the reactive function; the
// corresponding s-graph TEST vertices then have one child per value
// (the paper's "more than two children" extension).
package mvar

import (
	"fmt"
	"strconv"

	"polis/internal/bdd"
)

// Kind distinguishes input variables (tested by the reactive function)
// from output variables (assigned by it). The distinction drives the
// ordering constraint "an output may not sift above an input in its
// support".
type Kind int

const (
	Input Kind = iota
	Output
)

// MV is one multi-valued variable.
type MV struct {
	Name  string
	Size  int // number of values, >= 2
	Kind  Kind
	Bits  []bdd.Var // encoding bits, most significant first
	Index int       // position within the Space
	group int32
}

// NumBits returns the number of encoding bits of v.
func (v *MV) NumBits() int { return len(v.Bits) }

// Space owns a set of multi-valued variables sharing one BDD manager.
type Space struct {
	M     *bdd.Manager
	Vars  []*MV
	byBit map[bdd.Var]*MV
}

// NewSpace creates an empty variable space over a fresh manager.
func NewSpace() *Space {
	return &Space{M: bdd.New(), byBit: make(map[bdd.Var]*MV)}
}

// BitsFor returns the number of bits needed to encode n values.
func BitsFor(n int) int {
	b := 1
	for 1<<b < n {
		b++
	}
	return b
}

// NewMV creates a multi-valued variable with the given domain size at
// the bottom of the current order. Size 2 yields a plain Boolean
// variable (one bit).
func (s *Space) NewMV(name string, size int, kind Kind) *MV {
	if size < 2 {
		panic(fmt.Sprintf("mvar: domain of %q must have >= 2 values, got %d", name, size))
	}
	v := &MV{Name: name, Size: size, Kind: kind, Index: len(s.Vars)}
	nb := BitsFor(size)
	for i := 0; i < nb; i++ {
		b := s.M.NewVar(name + "." + strconv.Itoa(nb-1-i))
		v.Bits = append(v.Bits, b)
		s.byBit[b] = v
	}
	if err := s.M.Group(v.Bits...); err != nil {
		panic("mvar: fresh bits must be contiguous: " + err.Error())
	}
	v.group = s.M.GroupOf(v.Bits[0])
	s.Vars = append(s.Vars, v)
	return v
}

// Eq returns the BDD cube asserting v == val.
func (s *Space) Eq(v *MV, val int) bdd.Node {
	if val < 0 || val >= v.Size {
		panic(fmt.Sprintf("mvar: value %d out of range for %s (size %d)", val, v.Name, v.Size))
	}
	vals := make([]bool, len(v.Bits))
	for i, b := 0, len(v.Bits); i < b; i++ {
		vals[i] = val&(1<<(b-1-i)) != 0
	}
	return s.M.Cube(v.Bits, vals)
}

// CofactorValue restricts f by the assignment v == val.
func (s *Space) CofactorValue(f bdd.Node, v *MV, val int) bdd.Node {
	for i, b := 0, len(v.Bits); i < b; i++ {
		f = s.M.Cofactor(f, v.Bits[i], val&(1<<(b-1-i)) != 0)
	}
	return f
}

// Support returns the multi-valued variables f depends on, in Space
// order.
func (s *Space) Support(f bdd.Node) []*MV {
	seen := make(map[*MV]bool)
	var out []*MV
	for _, b := range s.M.Support(f) {
		v := s.byBit[b]
		if v != nil && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	// Order by Index for determinism.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].Index < out[j-1].Index; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// Top returns the multi-valued variable owning the topmost bit of f,
// or nil for terminals.
func (s *Space) Top(f bdd.Node) *MV {
	if f.IsConst() {
		return nil
	}
	return s.byBit[s.M.VarOf(f)]
}

// ValidEncoding returns the constraint that v's bits encode a value
// within [0, Size): needed when Size is not a power of two.
func (s *Space) ValidEncoding(v *MV) bdd.Node {
	f := bdd.False
	for val := 0; val < v.Size; val++ {
		f = s.M.Or(f, s.Eq(v, val))
	}
	return f
}

// EvalAssign evaluates f under the multi-valued assignment given by
// vals (indexed like s.Vars). Bits of variables missing from the map
// default to value 0.
func (s *Space) EvalAssign(f bdd.Node, vals map[*MV]int) bool {
	return s.M.Eval(f, func(b bdd.Var) bool {
		v := s.byBit[b]
		if v == nil {
			return false
		}
		val := vals[v]
		for i, bit := range v.Bits {
			if bit == b {
				return val&(1<<(len(v.Bits)-1-i)) != 0
			}
		}
		return false
	})
}

// SiftOutputsAfterSupport runs dynamic sifting under the paper's
// default constraint: every Output variable must stay below (after)
// every Input variable in the support of the characteristic function.
// supports maps each output variable to the set of input variables it
// depends on. costRoots, if non-empty, restricts the size measure to
// those functions (typically the characteristic function alone).
func (s *Space) SiftOutputsAfterSupport(supports map[*MV][]*MV, costRoots ...bdd.Node) {
	// Build the precedence relation on group ids.
	prec := make(map[[2]int32]bool)
	for out, ins := range supports {
		for _, in := range ins {
			prec[[2]int32{in.group, out.group}] = true
		}
	}
	s.M.Sift(bdd.SiftOptions{
		Roots: costRoots,
		Precede: func(a, b int32) bool {
			return prec[[2]int32{a, b}]
		},
	})
}

// SiftOutputsAfterAllInputs runs sifting with the stronger Table II
// variant: all outputs below all inputs.
func (s *Space) SiftOutputsAfterAllInputs(costRoots ...bdd.Node) {
	kindOf := make(map[int32]Kind)
	for _, v := range s.Vars {
		kindOf[v.group] = v.Kind
	}
	s.M.Sift(bdd.SiftOptions{
		Roots: costRoots,
		Precede: func(a, b int32) bool {
			return kindOf[a] == Input && kindOf[b] == Output
		},
	})
}
