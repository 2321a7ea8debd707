package esterel

import (
	"strconv"

	"polis/internal/expr"
)

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }
func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) accept(kind tokKind, text string) bool {
	t := p.peek()
	if t.kind == kind && t.text == text {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokKind, text string) (token, error) {
	t := p.next()
	if t.kind != kind || t.text != text {
		return t, parseError(t, "expected %q, got %q", text, t.text)
	}
	return t, nil
}

func (p *parser) expectIdent() (string, error) {
	t := p.next()
	if t.kind != tokIdent {
		return "", parseError(t, "expected identifier, got %q", t.text)
	}
	return t.text, nil
}

// Parse parses one module.
func Parse(src string) (*Module, error) {
	return parseModule(&parser{toks: lex(src)})
}

// parseModule parses one module from the parser's token stream.
func parseModule(p *parser) (*Module, error) {
	m := &Module{}
	if _, err := p.expect(tokKeyword, "module"); err != nil {
		return nil, err
	}
	name, err := p.expectIdent()
	if err != nil {
		return nil, err
	}
	m.Name = name
	if _, err := p.expect(tokSymbol, ":"); err != nil {
		return nil, err
	}
	// Declarations.
	for {
		switch {
		case p.accept(tokKeyword, "input"):
			d, err := p.sigDecl()
			if err != nil {
				return nil, err
			}
			m.Inputs = append(m.Inputs, d...)
		case p.accept(tokKeyword, "output"):
			d, err := p.sigDecl()
			if err != nil {
				return nil, err
			}
			m.Outputs = append(m.Outputs, d...)
		default:
			goto body
		}
	}
body:
	// Optional var blocks wrap the body.
	varDepth := 0
	for p.accept(tokKeyword, "var") {
		for {
			vn, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			vd := VarDecl{Name: vn}
			if p.accept(tokSymbol, ":=") {
				t := p.next()
				if t.kind != tokNumber {
					return nil, parseError(t, "expected initial value")
				}
				v, _ := strconv.ParseInt(t.text, 10, 64)
				vd.Init = v
			}
			if _, err := p.expect(tokSymbol, ":"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokKeyword, "integer"); err != nil {
				return nil, err
			}
			m.Vars = append(m.Vars, vd)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokKeyword, "in"); err != nil {
			return nil, err
		}
		varDepth++
	}
	stmts, err := p.stmts()
	if err != nil {
		return nil, err
	}
	m.Body = stmts
	for i := 0; i < varDepth; i++ {
		if _, err := p.expect(tokKeyword, "end"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "var"); err != nil {
			return nil, err
		}
	}
	if _, err := p.expect(tokKeyword, "end"); err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "module"); err != nil {
		return nil, err
	}
	return m, nil
}

// sigDecl parses `a, b : integer ;` or `a, b ;`.
func (p *parser) sigDecl() ([]SigDecl, error) {
	var names []string
	for {
		n, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		names = append(names, n)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	valued := false
	if p.accept(tokSymbol, ":") {
		if _, err := p.expect(tokKeyword, "integer"); err != nil {
			return nil, err
		}
		valued = true
	}
	if _, err := p.expect(tokSymbol, ";"); err != nil {
		return nil, err
	}
	out := make([]SigDecl, len(names))
	for i, n := range names {
		out[i] = SigDecl{Name: n, Valued: valued}
	}
	return out, nil
}

// stmts parses a sequence until a closing keyword (end/else).
func (p *parser) stmts() ([]Stmt, error) {
	var out []Stmt
	for {
		t := p.peek()
		if t.kind == tokKeyword && (t.text == "end" || t.text == "else") || t.kind == tokEOF {
			return out, nil
		}
		s, err := p.stmt()
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
}

func (p *parser) stmt() (Stmt, error) {
	t := p.peek()
	switch {
	case p.accept(tokKeyword, "await"):
		sig, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ";"); err != nil {
			return nil, err
		}
		return AwaitStmt{Signal: sig}, nil
	case p.accept(tokKeyword, "emit"):
		sig, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		var val expr.Expr
		if p.accept(tokSymbol, "(") {
			v, err := p.expr()
			if err != nil {
				return nil, err
			}
			val = v
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
		}
		if _, err := p.expect(tokSymbol, ";"); err != nil {
			return nil, err
		}
		return EmitStmt{Signal: sig, Value: val}, nil
	case p.accept(tokKeyword, "loop"):
		body, err := p.stmts()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "end"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "loop"); err != nil {
			return nil, err
		}
		return LoopStmt{Body: body}, nil
	case p.accept(tokKeyword, "repeat"):
		tk := p.next()
		if tk.kind != tokNumber {
			return nil, parseError(tk, "expected repetition count")
		}
		cnt, err := strconv.ParseInt(tk.text, 10, 64)
		if err != nil || cnt < 1 || cnt > 1024 {
			return nil, parseError(tk, "repetition count out of range")
		}
		if _, err := p.expect(tokKeyword, "times"); err != nil {
			return nil, err
		}
		body, err := p.stmts()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "end"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "repeat"); err != nil {
			return nil, err
		}
		return RepeatStmt{Count: cnt, Body: body}, nil
	case p.accept(tokKeyword, "nothing"):
		if _, err := p.expect(tokSymbol, ";"); err != nil {
			return nil, err
		}
		return NothingStmt{}, nil
	case p.accept(tokKeyword, "if"):
		st := IfStmt{}
		if p.accept(tokKeyword, "present") {
			sig, err := p.expectIdent()
			if err != nil {
				return nil, err
			}
			st.Present = sig
		} else {
			c, err := p.expr()
			if err != nil {
				return nil, err
			}
			st.Cond = c
		}
		if _, err := p.expect(tokKeyword, "then"); err != nil {
			return nil, err
		}
		then, err := p.stmts()
		if err != nil {
			return nil, err
		}
		st.Then = then
		if p.accept(tokKeyword, "else") {
			els, err := p.stmts()
			if err != nil {
				return nil, err
			}
			st.Else = els
		}
		if _, err := p.expect(tokKeyword, "end"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "if"); err != nil {
			return nil, err
		}
		return st, nil
	case t.kind == tokIdent:
		name := p.next().text
		if _, err := p.expect(tokSymbol, ":="); err != nil {
			return nil, err
		}
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ";"); err != nil {
			return nil, err
		}
		return AssignStmt{Var: name, Expr: e}, nil
	}
	return nil, parseError(t, "unexpected %q", t.text)
}

// Expression grammar: or -> and -> not -> cmp -> add -> mul -> unary
// -> primary.
func (p *parser) expr() (expr.Expr, error) { return p.orExpr() }

func (p *parser) orExpr() (expr.Expr, error) {
	l, err := p.andExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "or") {
		r, err := p.andExpr()
		if err != nil {
			return nil, err
		}
		l = expr.Or(l, r)
	}
	return l, nil
}

func (p *parser) andExpr() (expr.Expr, error) {
	l, err := p.notExpr()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "and") {
		r, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		l = expr.And(l, r)
	}
	return l, nil
}

func (p *parser) notExpr() (expr.Expr, error) {
	if p.accept(tokKeyword, "not") {
		x, err := p.notExpr()
		if err != nil {
			return nil, err
		}
		return expr.NewNot(x), nil
	}
	return p.cmpExpr()
}

func (p *parser) cmpExpr() (expr.Expr, error) {
	l, err := p.addExpr()
	if err != nil {
		return nil, err
	}
	t := p.peek()
	if t.kind == tokSymbol {
		var op func(a, b expr.Expr) expr.Expr
		switch t.text {
		case "=":
			op = expr.Eq
		case "<>":
			op = expr.Ne
		case "<":
			op = expr.Lt
		case "<=":
			op = expr.Le
		case ">":
			op = expr.Gt
		case ">=":
			op = expr.Ge
		}
		if op != nil {
			p.next()
			r, err := p.addExpr()
			if err != nil {
				return nil, err
			}
			return op(l, r), nil
		}
	}
	return l, nil
}

func (p *parser) addExpr() (expr.Expr, error) {
	l, err := p.mulExpr()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokSymbol, "+"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = expr.Add(l, r)
		case p.accept(tokSymbol, "-"):
			r, err := p.mulExpr()
			if err != nil {
				return nil, err
			}
			l = expr.Sub(l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) mulExpr() (expr.Expr, error) {
	l, err := p.unary()
	if err != nil {
		return nil, err
	}
	for {
		switch {
		case p.accept(tokSymbol, "*"):
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = expr.Mul(l, r)
		case p.accept(tokSymbol, "/"):
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = expr.Div(l, r)
		case p.accept(tokKeyword, "mod"):
			r, err := p.unary()
			if err != nil {
				return nil, err
			}
			l = expr.Mod(l, r)
		default:
			return l, nil
		}
	}
}

func (p *parser) unary() (expr.Expr, error) {
	if p.accept(tokSymbol, "-") {
		x, err := p.unary()
		if err != nil {
			return nil, err
		}
		return expr.NewNeg(x), nil
	}
	return p.primary()
}

func (p *parser) primary() (expr.Expr, error) {
	t := p.next()
	switch {
	case t.kind == tokNumber:
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return nil, parseError(t, "bad number %q", t.text)
		}
		return expr.C(v), nil
	case t.kind == tokIdent:
		return expr.V(t.text), nil
	case t.kind == tokSymbol && t.text == "?":
		n, err := p.expectIdent()
		if err != nil {
			return nil, err
		}
		return expr.EventValue(n), nil
	case t.kind == tokSymbol && t.text == "(":
		e, err := p.expr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return nil, parseError(t, "unexpected %q in expression", t.text)
}
