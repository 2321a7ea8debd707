// Package codegen translates s-graphs into target code: portable C
// text (Section III-B4 of the paper) and object code for the virtual
// embedded CPU of internal/vm. The one-statement-per-vertex discipline
// the paper relies on for estimation is preserved: every s-graph
// vertex maps to a fixed, recognisable instruction pattern.
package codegen

import (
	"slices"

	"polis/internal/cfsm"
	"polis/internal/expr"
	"polis/internal/sgraph"
)

// CopyPlan records which state variables must be copied on routine
// entry. The paper's implementation copies every variable "to provide
// a safe implementation of the update of their next-state values" and
// notes that a data-flow analysis detecting write-before-read cases
// would reduce ROM, RAM and CPU time (Section V-B); NeedCopy computes
// exactly that analysis, and generators consult it when the
// OptimizeCopies option is on.
type CopyPlan struct {
	// Read reports state variables whose value some expression or
	// selector reads.
	Read map[*cfsm.StateVar]bool
	// NeedCopy reports state variables that are written on some path
	// before a later read — only these need an entry copy.
	NeedCopy map[*cfsm.StateVar]bool
	// ValueRead reports input signals whose carried value is read.
	ValueRead map[*cfsm.Signal]bool
}

// Copied reports whether a routine copies sv on entry: every state
// variable it reads, or with optimize (Options.OptimizeCopies) only
// those in NeedCopy.
func (p *CopyPlan) Copied(sv *cfsm.StateVar, optimize bool) bool {
	if optimize {
		return p.NeedCopy[sv]
	}
	return p.Read[sv]
}

// analyzeCopies runs the write-before-read data-flow analysis over all
// BEGIN-to-END paths of g. It is one forward pass over a topological
// order (topo) carrying, per vertex, the may-written set W(v): the state
// variables some BEGIN-to-v path assigns. Each ASSIGN adds its variable
// to what flows to its successor, so W(child) is the union of W(v) ∪
// writes(v) over the child's parents. A variable needs a copy when a
// vertex reads it while it is in W(v). Because every path's own
// written-set at v is contained in W(v), and every member of W(v) is
// written on some path to v, this is exactly the union over paths of
// the per-path analysis. Sets are bitsets of ⌈|States|/64⌉ words per
// vertex ID. NewRoutine runs it; Routine.Plan holds the result.
func analyzeCopies(g *sgraph.SGraph, topo []*sgraph.Vertex) *CopyPlan {
	p := &CopyPlan{
		Read:      make(map[*cfsm.StateVar]bool),
		NeedCopy:  make(map[*cfsm.StateVar]bool),
		ValueRead: make(map[*cfsm.Signal]bool),
	}
	states := g.C.States
	words := (len(states) + 63) / 64
	may := make([]uint64, g.IDBound()*words)
	read := make([]uint64, words)
	need := make([]uint64, words)
	set := func(w []uint64, i int) { w[i/64] |= 1 << (i % 64) }
	has := func(w []uint64, i int) bool { return w[i/64]&(1<<(i%64)) != 0 }
	noteState := func(i int, w []uint64) {
		set(read, i)
		if has(w, i) {
			set(need, i)
		}
	}
	var names []string
	noteReads := func(e expr.Expr, w []uint64) {
		names = e.Vars(names[:0])
		for _, n := range names {
			switch i, value := g.C.Resolve(n); {
			case i < 0:
			case value:
				p.ValueRead[g.C.Inputs[i]] = true
			default:
				noteState(i, w)
			}
		}
	}
	flow := func(to *sgraph.Vertex, w []uint64) []uint64 {
		out := may[to.ID*words : (to.ID+1)*words]
		for k := range w {
			out[k] |= w[k]
		}
		return out
	}
	for _, v := range topo {
		w := may[v.ID*words : (v.ID+1)*words]
		switch v.Kind {
		case sgraph.Begin:
			flow(v.Next, w)
		case sgraph.Test:
			for _, t := range v.Tests {
				switch t.Kind {
				case cfsm.TestPredicate:
					noteReads(t.Pred, w)
				case cfsm.TestSelector:
					if i := slices.Index(states, t.Sel); i >= 0 {
						noteState(i, w)
					}
				}
			}
			for _, c := range v.Children {
				flow(c, w)
			}
		case sgraph.Assign:
			a := v.Action
			switch a.Kind {
			case cfsm.ActEmit:
				if a.Value != nil {
					noteReads(a.Value, w)
				}
				flow(v.Next, w)
			case cfsm.ActAssign:
				noteReads(a.Expr, w)
				out := flow(v.Next, w)
				if i := slices.Index(states, a.Var); i >= 0 {
					set(out, i)
				}
			}
		}
	}
	for i, sv := range states {
		if has(read, i) {
			p.Read[sv] = true
		}
		if has(need, i) {
			p.NeedCopy[sv] = true
		}
	}
	return p
}
