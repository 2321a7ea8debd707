// Package expr provides the side-effect-free arithmetic and relational
// expression language used in CFSM tests and actions. Expressions
// evaluate over bounded integers; relational and logical operators
// yield 0 or 1. Division is "safe" as the paper requires: the divisor
// is checked and a zero divisor yields 0 instead of trapping, so a
// correct CFSM may perform (but must not use) a division by zero.
package expr

import (
	"encoding/binary"
	"strconv"
)

// Op enumerates the operators of the expression language. Each binary
// operator corresponds to one of the predefined software library
// functions the cost-estimation package characterises (ADD, OR, EQ,
// ... in the paper's terminology). It is a byte, so an operator packs
// into an instruction beside the other byte-sized fields.
type Op uint8

const (
	OpAdd Op = iota
	OpSub
	OpMul
	OpDiv
	OpMod
	OpEq
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpAnd // logical
	OpOr  // logical
	OpBitAnd
	OpBitOr
	OpBitXor
	OpShl
	OpShr
	OpMin
	OpMax
	numOps
)

var opNames = [...]string{
	OpAdd: "ADD", OpSub: "SUB", OpMul: "MUL", OpDiv: "DIV", OpMod: "MOD",
	OpEq: "EQ", OpNe: "NE", OpLt: "LT", OpLe: "LE", OpGt: "GT", OpGe: "GE",
	OpAnd: "AND", OpOr: "OR",
	OpBitAnd: "BAND", OpBitOr: "BOR", OpBitXor: "BXOR",
	OpShl: "SHL", OpShr: "SHR", OpMin: "MIN", OpMax: "MAX",
}

var opSyms = [...]string{
	OpAdd: "+", OpSub: "-", OpMul: "*", OpDiv: "/", OpMod: "%",
	OpEq: "==", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpAnd: "&&", OpOr: "||",
	OpBitAnd: "&", OpBitOr: "|", OpBitXor: "^",
	OpShl: "<<", OpShr: ">>", OpMin: "/*min*/", OpMax: "/*max*/",
}

// Name returns the library-function name of the operator (ADD, EQ, ...).
func (o Op) Name() string { return opNames[o] }

// NumOps returns the number of operators, for cost tables.
func NumOps() int { return int(numOps) }

// Env resolves variable references during evaluation.
type Env interface {
	Lookup(name string) int64
}

// Expr is a side-effect-free integer expression.
type Expr interface {
	// Eval evaluates the expression in the given environment.
	Eval(env Env) int64
	// C renders the expression in C syntax.
	C() string
	// Vars appends the names of referenced variables to dst.
	Vars(dst []string) []string
	// Ops appends the operators used, one entry per occurrence, for
	// cost estimation.
	Ops(dst []Op) []Op
}

// Const is an integer literal.
type Const int64

// Eval implements Expr.
func (c Const) Eval(Env) int64 { return int64(c) }

// C implements Expr.
func (c Const) C() string { return render(c) }

// Vars implements Expr.
func (c Const) Vars(dst []string) []string { return dst }

// Ops implements Expr.
func (c Const) Ops(dst []Op) []Op { return dst }

// Ref references a variable by name. The name space is defined by the
// enclosing CFSM: a bare name reads a state variable, and an input's
// event value is spelled "?c" as in Esterel (EventValue builds that
// spelling, SplitRef takes it apart).
type Ref string

// EventValue returns the reference to input signal sig's event value.
func EventValue(sig string) Ref { return Ref("?" + sig) }

// AppendEventValue appends EventValue(sig) to b.
func AppendEventValue(b []byte, sig string) []byte { return append(append(b, '?'), sig...) }

// SplitRef takes a variable name apart: the signal's name and true for
// an input's event value, the name itself and false for a state
// variable.
func SplitRef(name string) (string, bool) {
	if len(name) > 0 && name[0] == '?' {
		return name[1:], true
	}
	return name, false
}

// Eval implements Expr.
func (r Ref) Eval(env Env) int64 { return env.Lookup(string(r)) }

// C implements Expr.
func (r Ref) C() string { return render(r) }

// Vars implements Expr.
func (r Ref) Vars(dst []string) []string { return append(dst, string(r)) }

// Ops implements Expr.
func (r Ref) Ops(dst []Op) []Op { return dst }

// Bin applies a binary operator.
type Bin struct {
	Op   Op
	L, R Expr
}

// NewBin builds a binary expression.
func NewBin(op Op, l, r Expr) *Bin { return &Bin{Op: op, L: l, R: r} }

// Eval implements Expr; relational and logical results are 0/1 and
// division by zero yields 0 (safe division).
func (b *Bin) Eval(env Env) int64 {
	return EvalOp(b.Op, b.L.Eval(env), b.R.Eval(env))
}

// EvalOp applies a binary operator to evaluated operands with the
// language's semantics (0/1 relational results, safe division). It is
// the allocation-free primitive behind Bin.Eval, shared with the
// virtual CPU's ALU.
func EvalOp(op Op, l, r int64) int64 {
	switch op {
	case OpAdd:
		return l + r
	case OpSub:
		return l - r
	case OpMul:
		return l * r
	case OpDiv:
		if r == 0 {
			return 0
		}
		return l / r
	case OpMod:
		if r == 0 {
			return 0
		}
		return l % r
	case OpEq:
		return b2i(l == r)
	case OpNe:
		return b2i(l != r)
	case OpLt:
		return b2i(l < r)
	case OpLe:
		return b2i(l <= r)
	case OpGt:
		return b2i(l > r)
	case OpGe:
		return b2i(l >= r)
	case OpAnd:
		return b2i(l != 0 && r != 0)
	case OpOr:
		return b2i(l != 0 || r != 0)
	case OpBitAnd:
		return l & r
	case OpBitOr:
		return l | r
	case OpBitXor:
		return l ^ r
	case OpShl:
		return l << (uint(r) & 63)
	case OpShr:
		return l >> (uint(r) & 63)
	case OpMin:
		if l < r {
			return l
		}
		return r
	case OpMax:
		if l > r {
			return l
		}
		return r
	}
	panic("expr: unknown op")
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// C implements Expr.
func (b *Bin) C() string { return render(b) }

// Vars implements Expr.
func (b *Bin) Vars(dst []string) []string { return b.R.Vars(b.L.Vars(dst)) }

// Ops implements Expr.
func (b *Bin) Ops(dst []Op) []Op { return b.R.Ops(b.L.Ops(append(dst, b.Op))) }

// Un applies a unary operator.
type UnOp int

// Unary operators.
const (
	UnNeg UnOp = iota // arithmetic negation
	UnNot             // logical not (0/1)
	UnBitNot
)

// Un is a unary expression.
type Un struct {
	Op UnOp
	X  Expr
}

// NewNeg negates x.
func NewNeg(x Expr) *Un { return &Un{Op: UnNeg, X: x} }

// NewNot logically negates x.
func NewNot(x Expr) *Un { return &Un{Op: UnNot, X: x} }

// Eval implements Expr.
func (u *Un) Eval(env Env) int64 {
	x := u.X.Eval(env)
	switch u.Op {
	case UnNeg:
		return -x
	case UnNot:
		return b2i(x == 0)
	case UnBitNot:
		return ^x
	}
	panic("expr: unknown unary op")
}

// C implements Expr.
func (u *Un) C() string { return render(u) }

// Vars implements Expr.
func (u *Un) Vars(dst []string) []string { return u.X.Vars(dst) }

// Ops implements Expr.
func (u *Un) Ops(dst []Op) []Op { return u.X.Ops(append(dst, OpSub)) }

// Convenience constructors keep CFSM definitions readable.

// Add returns l + r.
func Add(l, r Expr) Expr { return NewBin(OpAdd, l, r) }

// Sub returns l - r.
func Sub(l, r Expr) Expr { return NewBin(OpSub, l, r) }

// Mul returns l * r.
func Mul(l, r Expr) Expr { return NewBin(OpMul, l, r) }

// Div returns the safe quotient l / r (0 when r is 0).
func Div(l, r Expr) Expr { return NewBin(OpDiv, l, r) }

// Mod returns the safe remainder l % r (0 when r is 0).
func Mod(l, r Expr) Expr { return NewBin(OpMod, l, r) }

// Eq returns l == r as 0/1.
func Eq(l, r Expr) Expr { return NewBin(OpEq, l, r) }

// Ne returns l != r as 0/1.
func Ne(l, r Expr) Expr { return NewBin(OpNe, l, r) }

// Lt returns l < r as 0/1.
func Lt(l, r Expr) Expr { return NewBin(OpLt, l, r) }

// Le returns l <= r as 0/1.
func Le(l, r Expr) Expr { return NewBin(OpLe, l, r) }

// Gt returns l > r as 0/1.
func Gt(l, r Expr) Expr { return NewBin(OpGt, l, r) }

// Ge returns l >= r as 0/1.
func Ge(l, r Expr) Expr { return NewBin(OpGe, l, r) }

// And returns the logical conjunction as 0/1.
func And(l, r Expr) Expr { return NewBin(OpAnd, l, r) }

// Or returns the logical disjunction as 0/1.
func Or(l, r Expr) Expr { return NewBin(OpOr, l, r) }

// Min returns the smaller operand.
func Min(l, r Expr) Expr { return NewBin(OpMin, l, r) }

// Max returns the larger operand.
func Max(l, r Expr) Expr { return NewBin(OpMax, l, r) }

// C returns a constant literal.
func C(v int64) Expr { return Const(v) }

// V returns a variable reference.
func V(name string) Expr { return Ref(name) }

// Subst returns e with every variable reference rewritten through sub:
// references whose name maps to an expression are replaced by that
// expression, others are kept. The tree is rebuilt; e is not modified.
func Subst(e Expr, sub map[string]Expr) Expr {
	switch x := e.(type) {
	case Const:
		return x
	case Ref:
		if r, ok := sub[string(x)]; ok {
			return r
		}
		return x
	case *Un:
		return &Un{Op: x.Op, X: Subst(x.X, sub)}
	case *Bin:
		return &Bin{Op: x.Op, L: Subst(x.L, sub), R: Subst(x.R, sub)}
	}
	return e
}

// AppendC appends e in C syntax to b and returns the extended slice.
// Each variable reference is written as the prefix and base ref
// returns for its name, or as its name when ref is nil; the code
// generator passes a ref that maps state variables and input values
// into the routine's name space. Returning the two parts lets a
// mapping add a prefix without building a string. An Expr outside the
// four closed shapes appends its C().
func AppendC(b []byte, e Expr, ref func(name string) (prefix, base string)) []byte {
	switch x := e.(type) {
	case Const:
		return strconv.AppendInt(b, int64(x), 10)
	case Ref:
		if ref == nil {
			return append(b, x...)
		}
		prefix, base := ref(string(x))
		return append(append(b, prefix...), base...)
	case *Bin:
		switch x.Op {
		case OpMin, OpMax, OpDiv, OpMod:
			// Library calls (the division ones are safe division).
			b = append(append(b, x.Op.Name()...), '(')
			b = append(AppendC(b, x.L, ref), ", "...)
		default:
			b = AppendC(append(b, '('), x.L, ref)
			b = append(append(append(b, ' '), opSyms[x.Op]...), ' ')
		}
		return append(AppendC(b, x.R, ref), ')')
	case *Un:
		switch x.Op {
		case UnNeg:
			b = append(b, "(-"...)
		case UnNot:
			b = append(b, "(!"...)
		default:
			b = append(b, "(~"...)
		}
		return append(AppendC(b, x.X, ref), ')')
	}
	return append(b, e.C()...)
}

// render is C for the closed shapes: AppendC with every name as
// written.
func render(e Expr) string {
	var buf [64]byte
	return string(AppendC(buf[:0], e, nil))
}

// Shape tags of AppendKey.
const (
	keyNil = iota
	keyConst
	keyRef
	keyBin
	keyUn
	keyOther
)

// AppendKey appends the structural key of e to b: a shape tag, then a
// constant's varint value, a reference's length-prefixed name, or an
// operator followed by its operands' keys. A nil e (the value of a
// pure emission) has its own tag, and an Expr outside the four closed
// shapes is keyed by its C() so the key stays total. Keys are
// prefix-free: equal keys are equal trees, and keys written one after
// another read back unambiguously. The encoding is part of the cache
// fingerprint's stream, so changing it changes every cache key.
func AppendKey(b []byte, e Expr) []byte {
	switch x := e.(type) {
	case nil:
		return append(b, keyNil)
	case Const:
		return binary.AppendVarint(append(b, keyConst), int64(x))
	case Ref:
		return AppendString(append(b, keyRef), string(x))
	case *Bin:
		b = binary.AppendUvarint(append(b, keyBin), uint64(x.Op))
		return AppendKey(AppendKey(b, x.L), x.R)
	case *Un:
		b = binary.AppendUvarint(append(b, keyUn), uint64(x.Op))
		return AppendKey(b, x.X)
	}
	return AppendString(append(b, keyOther), e.C())
}

// AppendString appends s to b length-prefixed (a uvarint length, then
// the bytes): the string encoding of every structural key, AppendKey's
// and those built on it.
func AppendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}
