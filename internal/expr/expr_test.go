package expr

import (
	"testing"
	"testing/quick"
)

// MapEnv is a map-backed Env. Missing names read as 0.
type MapEnv map[string]int64

// Lookup implements Env.
func (e MapEnv) Lookup(name string) int64 { return e[name] }

func TestConstAndRef(t *testing.T) {
	env := MapEnv{"a": 7}
	if got := C(42).Eval(env); got != 42 {
		t.Errorf("const: %d", got)
	}
	if got := V("a").Eval(env); got != 7 {
		t.Errorf("ref: %d", got)
	}
	if got := V("missing").Eval(env); got != 0 {
		t.Errorf("missing ref should read 0, got %d", got)
	}
}

func TestArithmetic(t *testing.T) {
	env := MapEnv{"x": 10, "y": 3}
	cases := []struct {
		e    Expr
		want int64
	}{
		{Add(V("x"), V("y")), 13},
		{Sub(V("x"), V("y")), 7},
		{Mul(V("x"), V("y")), 30},
		{Div(V("x"), V("y")), 3},
		{Mod(V("x"), V("y")), 1},
		{Min(V("x"), V("y")), 3},
		{Max(V("x"), V("y")), 10},
		{Expr(NewNeg(V("y"))), -3},
	}
	for i, c := range cases {
		if got := c.e.Eval(env); got != c.want {
			t.Errorf("case %d (%s): got %d want %d", i, c.e.C(), got, c.want)
		}
	}
}

func TestSafeDivision(t *testing.T) {
	env := MapEnv{"x": 5}
	if got := Div(V("x"), C(0)).Eval(env); got != 0 {
		t.Errorf("x/0 must be 0 (safe division), got %d", got)
	}
	if got := Mod(V("x"), C(0)).Eval(env); got != 0 {
		t.Errorf("x%%0 must be 0 (safe division), got %d", got)
	}
}

func TestRelational(t *testing.T) {
	env := MapEnv{"a": 2, "b": 5}
	cases := []struct {
		e    Expr
		want int64
	}{
		{Eq(V("a"), C(2)), 1},
		{Eq(V("a"), V("b")), 0},
		{Ne(V("a"), V("b")), 1},
		{Lt(V("a"), V("b")), 1},
		{Le(V("b"), V("b")), 1},
		{Gt(V("a"), V("b")), 0},
		{Ge(V("b"), V("a")), 1},
		{And(Lt(V("a"), V("b")), Eq(V("a"), C(2))), 1},
		{Or(Gt(V("a"), V("b")), Eq(V("a"), C(99))), 0},
		{Expr(NewNot(Eq(V("a"), C(2)))), 0},
	}
	for i, c := range cases {
		if got := c.e.Eval(env); got != c.want {
			t.Errorf("case %d (%s): got %d want %d", i, c.e.C(), got, c.want)
		}
	}
}

func TestCRendering(t *testing.T) {
	e := Add(Mul(V("a"), C(2)), Div(V("b"), V("c")))
	want := "((a * 2) + DIV(b, c))"
	if got := e.C(); got != want {
		t.Errorf("C(): got %q want %q", got, want)
	}
	if got := Min(V("a"), C(1)).C(); got != "MIN(a, 1)" {
		t.Errorf("MIN C(): %q", got)
	}
}

// TestAppendCRefMapping: AppendC sends each reference, and only
// references, through the mapping; library-call names stay, and the
// text goes after what the buffer already holds.
func TestAppendCRefMapping(t *testing.T) {
	e := Add(Min(V("MIN"), V("?x")), NewNeg(Div(V("DIV"), C(-2))))
	ref := func(name string) (string, string) { return "m_", name }
	got := string(AppendC([]byte("x = "), e, ref))
	if want := "x = (MIN(m_MIN, m_?x) + (-DIV(m_DIV, -2)))"; got != want {
		t.Errorf("AppendC = %q, want %q", got, want)
	}
}

// TestAppendKey pins the key's bytes for one tree (they are part of
// the cache fingerprint) and that trees C() renders alike, but which
// differ in shape, get different keys.
func TestAppendKey(t *testing.T) {
	got := AppendKey(nil, Add(V("ab"), NewNeg(C(-1))))
	want := []byte{keyBin, byte(OpAdd), keyRef, 2, 'a', 'b', keyUn, byte(UnNeg), keyConst, 1}
	if string(got) != string(want) {
		t.Errorf("AppendKey = %v, want %v", got, want)
	}
	if string(AppendKey(nil, nil)) != string([]byte{keyNil}) {
		t.Error("nil key")
	}
	for _, p := range [][2]Expr{
		{C(-1), V("-1")},
		{Add(V("a"), V("b")), V("(a + b)")},
	} {
		if p[0].C() != p[1].C() {
			t.Fatalf("%q and %q: not alike", p[0].C(), p[1].C())
		}
		if string(AppendKey(nil, p[0])) == string(AppendKey(nil, p[1])) {
			t.Errorf("%q: const/ref and bin/ref share a key", p[0].C())
		}
	}
}

func TestVarsAndOps(t *testing.T) {
	e := Add(Mul(V("a"), C(2)), Eq(V("b"), V("a")))
	vars := e.Vars(nil)
	if len(vars) != 3 || vars[0] != "a" || vars[1] != "b" || vars[2] != "a" {
		t.Errorf("vars: %v", vars)
	}
	ops := e.Ops(nil)
	if len(ops) != 3 {
		t.Fatalf("ops count: %v", ops)
	}
	seen := map[Op]bool{}
	for _, o := range ops {
		seen[o] = true
	}
	if !seen[OpAdd] || !seen[OpMul] || !seen[OpEq] {
		t.Errorf("ops missing: %v", ops)
	}
}

func TestOpNamesComplete(t *testing.T) {
	for o := Op(0); o < Op(NumOps()); o++ {
		if o.Name() == "" {
			t.Errorf("operator %d has no name", o)
		}
	}
}

// Property: relational operators always return 0 or 1.
func TestQuickRelationalBoolean(t *testing.T) {
	ops := []Op{OpEq, OpNe, OpLt, OpLe, OpGt, OpGe, OpAnd, OpOr}
	prop := func(a, b int32, which uint8) bool {
		op := ops[int(which)%len(ops)]
		v := NewBin(op, C(int64(a)), C(int64(b))).Eval(nil)
		return v == 0 || v == 1
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// Property: Eval is deterministic and evaluation order of Vars does
// not matter (expressions have no side effects).
func TestQuickEvalDeterministic(t *testing.T) {
	prop := func(a, b, c int16) bool {
		env := MapEnv{"a": int64(a), "b": int64(b), "c": int64(c)}
		e := Add(Mul(V("a"), V("b")), Div(V("c"), Sub(V("a"), V("b"))))
		return e.Eval(env) == e.Eval(env)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestShifts(t *testing.T) {
	if got := NewBin(OpShl, C(1), C(4)).Eval(nil); got != 16 {
		t.Errorf("1<<4 = %d", got)
	}
	if got := NewBin(OpShr, C(16), C(2)).Eval(nil); got != 4 {
		t.Errorf("16>>2 = %d", got)
	}
	if got := NewBin(OpBitXor, C(6), C(3)).Eval(nil); got != 5 {
		t.Errorf("6^3 = %d", got)
	}
}

func TestSubst(t *testing.T) {
	e := Add(V("a"), Mul(V("?s"), C(2)))
	sub := map[string]Expr{"?s": Add(V("b"), C(1))}
	got := Subst(e, sub)
	env := MapEnv{"a": 10, "b": 4}
	if v := got.Eval(env); v != 10+(4+1)*2 {
		t.Errorf("subst eval: %d", v)
	}
	// Original untouched.
	if v := e.Eval(MapEnv{"a": 1, "?s": 3}); v != 7 {
		t.Errorf("original changed: %d", v)
	}
	// Unary nodes rebuild too.
	u := NewNot(V("?s"))
	gu := Subst(u, map[string]Expr{"?s": C(0)})
	if v := gu.Eval(nil); v != 1 {
		t.Errorf("unary subst: %d", v)
	}
	// Constants pass through.
	if Subst(C(5), sub).Eval(nil) != 5 {
		t.Error("const subst")
	}
}

func TestCRenderingMore(t *testing.T) {
	cases := []struct {
		e    Expr
		want string
	}{
		{Max(V("x"), C(3)), "MAX(x, 3)"},
		{Mod(V("x"), C(4)), "MOD(x, 4)"},
		{NewBin(OpShl, V("x"), C(2)), "(x << 2)"},
		{NewBin(OpBitXor, V("x"), V("y")), "(x ^ y)"},
		{Expr(NewNeg(V("x"))), "(-x)"},
		{Expr(&Un{Op: UnBitNot, X: V("x")}), "(~x)"},
		{And(Eq(V("a"), C(1)), Ne(V("b"), C(2))), "((a == 1) && (b != 2))"},
	}
	for _, c := range cases {
		if got := c.e.C(); got != c.want {
			t.Errorf("C() = %q, want %q", got, c.want)
		}
	}
}

func TestBitNotEval(t *testing.T) {
	u := &Un{Op: UnBitNot, X: C(5)}
	if got := u.Eval(nil); got != ^int64(5) {
		t.Errorf("bitnot: %d", got)
	}
	if got := u.Vars(nil); len(got) != 0 {
		t.Errorf("bitnot vars: %v", got)
	}
	if got := u.Ops(nil); len(got) != 1 {
		t.Errorf("bitnot ops: %v", got)
	}
}
