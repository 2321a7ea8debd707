package mvar

import (
	"testing"
	"testing/quick"

	"polis/internal/bdd"
)

func TestBitsFor(t *testing.T) {
	cases := map[int]int{2: 1, 3: 2, 4: 2, 5: 3, 8: 3, 9: 4, 16: 4, 17: 5}
	for n, want := range cases {
		if got := bitsFor(n); got != want {
			t.Errorf("bitsFor(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestEqDisjointAndComplete(t *testing.T) {
	s := NewSpace()
	v := s.NewMV("state", 5, Input)
	union := bdd.False
	for a := 0; a < v.Size; a++ {
		for b := a + 1; b < v.Size; b++ {
			if s.M.And(s.Eq(v, a), s.Eq(v, b)) != bdd.False {
				t.Errorf("Eq(%d) and Eq(%d) overlap", a, b)
			}
		}
		union = s.M.Or(union, s.Eq(v, a))
	}
	if union != s.ValidEncoding(v) {
		t.Error("union of Eq values must equal ValidEncoding")
	}
}

func TestCofactorValue(t *testing.T) {
	s := NewSpace()
	v := s.NewMV("x", 4, Input)
	w := s.NewMV("y", 2, Input)
	f := s.M.Or(
		s.M.And(s.Eq(v, 2), s.Eq(w, 1)),
		s.M.And(s.Eq(v, 3), s.Eq(w, 0)),
	)
	if got := s.CofactorValue(f, v, 2); got != s.Eq(w, 1) {
		t.Errorf("f|x=2 wrong: %s", s.M.String(got))
	}
	if got := s.CofactorValue(f, v, 0); got != bdd.False {
		t.Errorf("f|x=0 should be false: %s", s.M.String(got))
	}
}

func TestSupportAndTop(t *testing.T) {
	s := NewSpace()
	a := s.NewMV("a", 3, Input)
	s.NewMV("b", 2, Input) // between a and c, outside f's support
	c := s.NewMV("c", 4, Output)
	f := s.M.And(s.Eq(a, 1), s.Eq(c, 2))
	sup := s.Support(f)
	if len(sup) != 2 || sup[0] != a || sup[1] != c {
		t.Errorf("support wrong: %v", names(sup))
	}
	if top := s.Top(f); top != a {
		t.Errorf("top of f should be a, got %v", top.Name)
	}
	if s.Top(bdd.True) != nil {
		t.Error("top of a constant must be nil")
	}
}

func names(vs []*MV) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Name
	}
	return out
}

func TestEvalAssign(t *testing.T) {
	s := NewSpace()
	v := s.NewMV("v", 6, Input)
	for val := 0; val < 6; val++ {
		f := s.Eq(v, val)
		for probe := 0; probe < 6; probe++ {
			got := s.EvalAssign(f, map[*MV]int{v: probe})
			if got != (probe == val) {
				t.Errorf("Eq(%d) under v=%d: got %v", val, probe, got)
			}
		}
	}
}

func TestQuickEqRoundTrip(t *testing.T) {
	s := NewSpace()
	v := s.NewMV("v", 11, Input)
	w := s.NewMV("w", 7, Input)
	prop := func(a, b uint8) bool {
		av := int(a) % v.Size
		bv := int(b) % w.Size
		f := s.M.And(s.Eq(v, av), s.Eq(w, bv))
		// Exactly the assignment (av,bv) satisfies f.
		for x := 0; x < v.Size; x++ {
			for y := 0; y < w.Size; y++ {
				sat := s.EvalAssign(f, map[*MV]int{v: x, w: y})
				if sat != (x == av && y == bv) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestSiftOutputsAfterAllInputs(t *testing.T) {
	s := NewSpace()
	// Interleave creation: out, in, out, in.
	o1 := s.NewMV("o1", 2, Output)
	i1 := s.NewMV("i1", 4, Input)
	o2 := s.NewMV("o2", 2, Output)
	i2 := s.NewMV("i2", 4, Input)
	f := s.M.And(
		s.M.Xnor(s.Eq(o1, 1), s.Eq(i1, 2)),
		s.M.Xnor(s.Eq(o2, 1), s.Eq(i2, 3)),
	)
	s.M.Protect(f)
	s.SiftOutputsAfterAllInputs()
	maxIn := 0
	for _, v := range []*MV{i1, i2} {
		for _, b := range v.Bits {
			if l := s.M.Level(b); l > maxIn {
				maxIn = l
			}
		}
	}
	for _, v := range []*MV{o1, o2} {
		for _, b := range v.Bits {
			if s.M.Level(b) <= maxIn {
				t.Errorf("output bit of %s at level %d, above an input (max input level %d)",
					v.Name, s.M.Level(b), maxIn)
			}
		}
	}
	if err := s.M.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSiftOutputsAfterSupport(t *testing.T) {
	s := NewSpace()
	i1 := s.NewMV("i1", 4, Input)
	o1 := s.NewMV("o1", 2, Output)
	i2 := s.NewMV("i2", 4, Input)
	o2 := s.NewMV("o2", 2, Output)
	// o1 depends on i1 only, o2 on i2 only.
	f := s.M.And(
		s.M.Xnor(s.Eq(o1, 1), s.Eq(i1, 2)),
		s.M.Xnor(s.Eq(o2, 1), s.Eq(i2, 3)),
	)
	s.M.Protect(f)
	before := s.M.Size(f)
	s.SiftOutputsAfterSupport(map[*MV][]*MV{o1: {i1}, o2: {i2}})
	after := s.M.Size(f)
	if after > before {
		t.Errorf("constrained sift grew the BDD: %d -> %d", before, after)
	}
	// o1 must still be below i1's bits, o2 below i2's.
	if s.M.Level(o1.Bits[0]) < s.M.Level(i1.Bits[len(i1.Bits)-1]) {
		t.Error("o1 sifted above i1")
	}
	if s.M.Level(o2.Bits[0]) < s.M.Level(i2.Bits[len(i2.Bits)-1]) {
		t.Error("o2 sifted above i2")
	}
	if err := s.M.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGroupBitsStayAdjacent(t *testing.T) {
	s := NewSpace()
	a := s.NewMV("a", 8, Input) // 3 bits
	b := s.NewMV("b", 8, Input) // 3 bits
	f := bdd.False
	for x := 0; x < 8; x++ {
		f = s.M.Or(f, s.M.And(s.Eq(a, x), s.Eq(b, 7-x)))
	}
	s.M.Protect(f)
	s.M.Sift(bdd.SiftOptions{})
	for _, v := range []*MV{a, b} {
		for i := 1; i < len(v.Bits); i++ {
			if s.M.Level(v.Bits[i]) != s.M.Level(v.Bits[i-1])+1 {
				t.Errorf("bits of %s no longer adjacent after sift", v.Name)
			}
		}
	}
}

func TestOwnerAndGroup(t *testing.T) {
	s := NewSpace()
	a := s.NewMV("a", 5, Input)
	b := s.NewMV("b", 2, Output)
	for _, bit := range a.Bits {
		if s.Top(s.M.VarNode(bit)) != a {
			t.Errorf("owner of %v should be a", bit)
		}
	}
	if s.Top(s.M.VarNode(b.Bits[0])) != b {
		t.Error("owner of b's bit wrong")
	}
	if a.group == b.group {
		t.Error("distinct variables must have distinct groups")
	}
	if a.NumBits() != 3 || b.NumBits() != 1 {
		t.Errorf("bit widths: %d %d", a.NumBits(), b.NumBits())
	}
}
