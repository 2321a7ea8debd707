// Package expr provides the side-effect-free arithmetic and relational
// expression language used in CFSM tests and actions. Expressions
// evaluate over bounded integers; relational and logical operators
// yield 0 or 1. Division is "safe" as the paper requires: the divisor
// is checked and a zero divisor yields 0 instead of trapping, so a
// correct CFSM may perform (but must not use) a division by zero.
package expr

import "strconv"

// Op enumerates the operators of the expression language. Each binary
// operator corresponds to one of the predefined software library
// functions the cost-estimation package characterises (ADD, OR, EQ,
// ... in the paper's terminology).
type Op int

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

// MapEnv is a map-backed Env. Missing names read as 0.
type MapEnv map[string]int64

// Lookup implements Env.
func (e MapEnv) Lookup(name string) int64 { return e[name] }

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
func (c Const) C() string { return strconv.FormatInt(int64(c), 10) }

// Vars implements Expr.
func (c Const) Vars(dst []string) []string { return dst }

// Ops implements Expr.
func (c Const) Ops(dst []Op) []Op { return dst }

// Ref references a variable by name. The name space is defined by the
// enclosing CFSM: state variables, input-event values (?c in Esterel
// notation becomes c_value), and constants bound by the environment.
type Ref string

// Eval implements Expr.
func (r Ref) Eval(env Env) int64 { return env.Lookup(string(r)) }

// C implements Expr.
func (r Ref) C() string { return string(r) }

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
func (b *Bin) C() string {
	switch b.Op {
	case OpMin, OpMax, OpDiv, OpMod:
		// Library calls (the division ones are safe division).
		return b.Op.Name() + "(" + b.L.C() + ", " + b.R.C() + ")"
	}
	return "(" + b.L.C() + " " + opSyms[b.Op] + " " + b.R.C() + ")"
}

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
func (u *Un) C() string {
	switch u.Op {
	case UnNeg:
		return "(-" + u.X.C() + ")"
	case UnNot:
		return "(!" + u.X.C() + ")"
	default:
		return "(~" + u.X.C() + ")"
	}
}

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
