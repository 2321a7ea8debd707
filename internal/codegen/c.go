package codegen

import (
	"strconv"
	"strings"

	"polis/internal/cfsm"
	"polis/internal/expr"
	"polis/internal/sgraph"
)

// EmitC renders the s-graph as the C routine the paper's flow hands to
// the target's C compiler; it is NewRoutine(g, opts).EmitC().
func EmitC(g *sgraph.SGraph, opts Options) string { return NewRoutine(g, opts).EmitC() }

// EmitC renders the routine as C: one statement per vertex, if/switch
// plus goto for TEST vertices, assignments and RTOS macro calls for
// ASSIGN vertices. The code is deliberately unstructured ("almost like
// a portable assembly code"); the leading comment block carries the
// compiler directives relating it back to the CFSM source, as Section
// III-B4 describes.
func (r *Routine) EmitC() string {
	g, opts := r.G, r.Opts
	var b strings.Builder
	b.Grow(128 * len(r.Order)) // about what a routine takes per vertex
	name := g.C.Name
	put(&b, "/* Generated by polis sgraph codegen from CFSM ", strconv.Quote(name), ". */\n",
		"/* #pragma cfsm ", name, " */\n#include \"polis_rtos.h\"\n\n")
	// Persistent state.
	for _, sv := range g.C.States {
		put(&b, "static int st_", sv.Name, " = ", strconv.FormatInt(sv.Init, 10), ";\n")
	}
	put(&b, "\nvoid ", name, "_react(void)\n{\n")

	// Entry copies.
	for _, sv := range g.C.States {
		if r.Plan.Copied(sv, opts.OptimizeCopies) {
			put(&b, "  int cur_", sv.Name, " = st_", sv.Name, ";\n")
		}
	}
	for _, sig := range g.C.Inputs {
		if !sig.Pure && r.Plan.ValueRead[sig] {
			put(&b, "  int val_", sig.Name, " = VALUE(", sig.Name, ");\n")
		}
	}

	// Expression references in the routine's name space: a state
	// variable reads its entry copy or its static, an input value ?s
	// its val_s local; any other name stays as written.
	names := make(map[string]string, len(g.C.States)+len(g.C.Inputs))
	for _, sv := range g.C.States {
		if r.Plan.Copied(sv, opts.OptimizeCopies) {
			names[sv.Name] = "cur_" + sv.Name
		} else {
			names[sv.Name] = stateSymbol(sv)
		}
	}
	for _, sig := range g.C.Inputs {
		names["?"+sig.Name] = "val_" + sig.Name
	}
	ref := func(name string) string {
		if to, ok := names[name]; ok {
			return to
		}
		return name
	}

	for i, v := range r.Order {
		id := strconv.Itoa(v.ID)
		if i > 0 {
			// A label per vertex keeps the emitter simple; unused
			// labels cost nothing in the object code.
			put(&b, "L", id, ":\n")
		}
		put(&b, "  /* #line sgraph ", name, " vertex ", id, " (", v.Kind.String(), ") */\n")
		switch v.Kind {
		case sgraph.End:
			b.WriteString("  return;\n")
		case sgraph.Assign:
			a := v.Action
			switch a.Kind {
			case cfsm.ActEmit:
				if a.Value == nil {
					put(&b, "  EMIT(", a.Signal.Name, ");\n")
				} else {
					put(&b, "  EMIT_VALUE(", a.Signal.Name, ", ")
					expr.WriteC(&b, a.Value, ref)
					b.WriteString(");\n")
				}
			case cfsm.ActAssign:
				put(&b, "  st_", a.Var.Name, " = ")
				expr.WriteC(&b, a.Expr, ref)
				b.WriteString(";\n")
			}
		case sgraph.Test:
			emitCTest(&b, v, opts, ref)
		}
		if w := r.Jump(v); w != nil {
			put(&b, "  goto L", strconv.Itoa(w.ID), ";\n")
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// put appends each of ss to b.
func put(b *strings.Builder, ss ...string) {
	for _, s := range ss {
		b.WriteString(s)
	}
}

// emitCTest renders the branch statement(s) of a TEST vertex. The
// fall-through outcome is FallIdx() — outcome 0 by default, the
// profiled-hottest outcome on a specialized vertex — and the tested
// outcomes follow the vertex's emission order (OutcomeAt), so cold
// outcomes pay the later comparisons.
func emitCTest(b *strings.Builder, v *sgraph.Vertex, opts Options, ref func(string) string) {
	cond := func(t *cfsm.Test) {
		switch t.Kind {
		case cfsm.TestPresence:
			put(b, "PRESENT(", t.Signal.Name, ")")
		case cfsm.TestPredicate:
			expr.WriteC(b, t.Pred, ref)
		default:
			b.WriteString(ref(t.Sel.Name))
		}
	}
	if len(v.Tests) == 1 && v.Tests[0].Arity() == 2 {
		if v.FallIdx() == 1 {
			// Hot outcome 1 falls through; branch away on false.
			b.WriteString("  if (!(")
			cond(v.Tests[0])
			put(b, ")) goto L", strconv.Itoa(v.Children[0].ID), ";\n")
		} else {
			b.WriteString("  if (")
			cond(v.Tests[0])
			put(b, ") goto L", strconv.Itoa(v.Children[1].ID), ";\n")
		}
		return
	}
	// Multi-way outcome expression, mixed radix over the tests:
	// ((c0) * a1 + c1) * a2 + c2, a Boolean test counting as !!(c).
	idx := func() {
		for range v.Tests[1:] {
			b.WriteByte('(')
		}
		for i, t := range v.Tests {
			if i > 0 {
				put(b, ") * ", strconv.Itoa(t.Arity()), " + ")
			}
			if t.Arity() == 2 {
				b.WriteString("!!(")
				cond(t)
				b.WriteByte(')')
			} else {
				cond(t)
			}
		}
	}
	if v.Arity() <= opts.IfThreshold {
		b.WriteString("  { int _k = ")
		idx()
		b.WriteString(";\n")
		for pos := 1; pos < v.Arity(); pos++ {
			k := v.OutcomeAt(pos)
			put(b, "    if (_k == ", strconv.Itoa(k), ") goto L", strconv.Itoa(v.Children[k].ID), ";\n")
		}
		b.WriteString("  }\n")
		return
	}
	fall := v.FallIdx()
	b.WriteString("  switch (")
	idx()
	b.WriteString(") {\n")
	for k := 0; k < v.Arity(); k++ {
		if k == fall {
			continue
		}
		put(b, "  case ", strconv.Itoa(k), ": goto L", strconv.Itoa(v.Children[k].ID), ";\n")
	}
	b.WriteString("  default: break;\n  }\n")
}

// RTOSHeader returns the polis_rtos.h contents the generated C
// references; emitted once per synthesized system for completeness of
// the C artefact.
func RTOSHeader() string {
	return `/* polis_rtos.h -- event services provided by the generated RTOS. */
#ifndef POLIS_RTOS_H
#define POLIS_RTOS_H
extern int  polis_present(int sig);
extern int  polis_value(int sig);
extern void polis_emit(int sig);
extern void polis_emit_value(int sig, int v);
#define PRESENT(s)       polis_present(SIG_##s)
#define VALUE(s)         polis_value(SIG_##s)
#define EMIT(s)          polis_emit(SIG_##s)
#define EMIT_VALUE(s, v) polis_emit_value(SIG_##s, (v))
#define DIV(a, b)        ((b) ? (a) / (b) : 0)
#define MOD(a, b)        ((b) ? (a) % (b) : 0)
#define MIN(a, b)        ((a) < (b) ? (a) : (b))
#define MAX(a, b)        ((a) > (b) ? (a) : (b))
#endif
`
}
