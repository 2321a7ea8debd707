package estimate

import (
	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/expr"
	"polis/internal/sgraph"
)

// Result is a complete cost estimate for one CFSM routine.
type Result struct {
	// CodeBytes estimates the ROM footprint of the routine.
	CodeBytes int64
	// DataBytes estimates the RAM footprint (state, copies, temps).
	DataBytes int64
	// MinCycles and MaxCycles bound a single transition's execution
	// time (Dijkstra shortest path / PERT longest path over the
	// s-graph, Section III-C1).
	MinCycles int64
	MaxCycles int64
	// ExpectedCycles is the profile-weighted mean execution time of a
	// transition under Options.Scenario: each observed outcome
	// vector's path is costed exactly and weighted by its observed
	// frequency. Zero when no profile is supplied (or none of its
	// vectors cover this graph's tests); compare against MaxCycles to
	// see what specialization buys on the scenario actually running.
	ExpectedCycles int64
}

// Options tunes the estimator.
type Options struct {
	// Codegen mirrors the code-generation options the estimate
	// should assume (copy optimisation, if/switch threshold).
	// EstimateRoutine reads the routine's options instead.
	Codegen codegen.Options
	// UseFalsePaths enables pruning of statically infeasible paths
	// using the CFSM's mutual-exclusion information ("event
	// incompatibility relations"), tightening MaxCycles.
	UseFalsePaths bool
	// Scenario, when set, adds the profile-weighted ExpectedCycles
	// figure to the result. It holds a profile's outcome vectors over
	// the machine's tests, the same evidence the specialization pass
	// consumes (sgraph.Specialize returns them), so worst-case and
	// expected-case can be read off one estimate.
	Scenario []sgraph.ProfileVector
}

// vertexCost is the estimated cycles of the vertex body (excluding
// per-edge costs) and its code size in routine r.
func vertexCost(p *Params, r *codegen.Routine, v *sgraph.Vertex) (cyc, sz int64) {
	switch v.Kind {
	case sgraph.Begin, sgraph.End:
		return 0, 0
	case sgraph.Assign:
		a := v.Action
		switch a.Kind {
		case cfsm.ActEmit:
			if a.Value == nil {
				return p.AssignEmitCyc, p.AssignEmitSz
			}
			c, s := p.ExprCost(a.Value)
			return c + p.AssignEmitValuedCyc, s + p.AssignEmitVSz
		default:
			c, s := p.ExprCost(a.Expr)
			return c + p.AssignStoreCyc, s + p.AssignStoreSz
		}
	case sgraph.Test:
		if len(v.Tests) == 1 && v.Tests[0].Arity() == 2 {
			t := v.Tests[0]
			switch t.Kind {
			case cfsm.TestPresence:
				return 0, p.TestPresenceSz // timing handled per edge
			case cfsm.TestPredicate:
				c, s := p.ExprCost(t.Pred)
				return c, s + p.TestBoolSz
			default:
				return p.TestSelLoadCyc, p.TestSelLoadSz + p.TestBoolSz
			}
		}
		// Multi-way: index computation plus dispatch.
		var c, s int64
		for _, t := range v.Tests {
			c += p.TestIdxStepCyc
			s += p.TestIdxStepSz
			switch t.Kind {
			case cfsm.TestPresence:
				c += p.TestPresenceCyc[0] - p.TestBoolCyc[0] // the SVC part
				s += p.TestPresenceSz - p.TestBoolSz
			case cfsm.TestPredicate:
				ec, es := p.ExprCost(t.Pred)
				c += ec + 2*p.ExprUnaryCyc
				s += es + 4
			default:
				c += p.TestSelLoadCyc
				s += p.TestSelLoadSz
			}
		}
		arity := int64(v.Arity())
		if int(arity) <= r.Opts.IfThreshold {
			// Compare-and-branch chain: one LDI+BR per non-zero
			// outcome; approximate per-arm cost with the Boolean
			// branch parameters.
			c += (arity - 1) * (p.ExprConstCyc + p.TestBoolCyc[0])
			s += (arity - 1) * (p.ExprConstSz + p.TestBoolSz)
			return c, s
		}
		c += p.TestMultiBaseCyc
		s += p.TestMultiBaseSz + arity*p.TestMultiPerSz
		return c, s
	}
	return 0, 0
}

// edgeCost is the estimated cycles of taking the k-th (semantic)
// edge out of v (k is 0 for BEGIN and ASSIGN), including the goto of
// the routine's Jump on the fall-through arm. Costs attach to emission
// positions, not outcome indices: position 0 is the fall-through arm,
// later positions pay progressively more comparisons. On an
// unspecialized vertex position and index coincide; a Hot order
// permutes which outcome sits where, which is exactly how
// specialization makes the hot arm cheap.
func edgeCost(p *Params, r *codegen.Routine, v *sgraph.Vertex, k int) int64 {
	var jump int64
	if k == v.FallIdx() && r.Jump(v) != nil {
		jump = p.GotoCyc
	}
	if v.Kind != sgraph.Test {
		return jump
	}
	pos := v.HotPos(k)
	if len(v.Tests) == 1 && v.Tests[0].Arity() == 2 {
		if v.Tests[0].Kind == cfsm.TestPresence {
			return jump + p.TestPresenceCyc[pos]
		}
		return jump + p.TestBoolCyc[pos]
	}
	if v.Arity() <= r.Opts.IfThreshold {
		// The arm at emission position pos pays pos comparisons
		// before its branch hits.
		return jump + int64(pos)*(p.ExprConstCyc+p.TestBoolCyc[1])
	}
	// Jump-table dispatch is uniform in reality; the per-edge model
	// keeps the historical position-proportional approximation.
	return jump + int64(pos)*p.TestMultiPerEdgeCyc
}

// EstimateSGraph estimates g's routine under opts.Codegen; it is
// EstimateRoutine over codegen.NewRoutine(g, opts.Codegen).
func EstimateSGraph(g *sgraph.SGraph, p *Params, opts Options) Result {
	return EstimateRoutine(codegen.NewRoutine(g, opts.Codegen), p, opts)
}

// EstimateRoutine computes the estimate by a single traversal of the
// routine, as the paper's estimator does: code size is the sum of the
// per-vertex size parameters, timing bounds come from shortest and
// longest path. The routine's options replace opts.Codegen.
func EstimateRoutine(r *codegen.Routine, p *Params, opts Options) Result {
	var res Result
	g := r.G

	// --- entry overhead ---
	var entryCyc, entrySz int64
	entryCyc += p.CallReturnCyc
	entrySz += p.CallReturnSz
	copies := 0
	for _, sv := range g.C.States {
		if r.Plan.Copied(sv, r.Opts.OptimizeCopies) {
			copies++
			entryCyc += p.LocalCopyCyc
			entrySz += p.LocalCopySz
		}
	}
	valueFetches := 0
	for _, sig := range g.C.Inputs {
		if !sig.Pure && r.Plan.ValueRead[sig] {
			valueFetches++
			entryCyc += p.ValueFetchCyc
			entrySz += p.ValueFetchSz
		}
	}

	// --- per-vertex size, and timing DP over the DAG ---
	// Each statement's goto bytes go into code size, its goto time into
	// the edge it jumps along (edgeCost). Shortest/longest path over the
	// DAG by memoised recursion (DFS pre-order is not a
	// reverse-topological order when children are shared).
	var sz int64
	type bounds struct {
		min, max int64
		done     bool
	}
	memo := make([]bounds, g.IDBound())
	var visit func(v *sgraph.Vertex) bounds
	visit = func(v *sgraph.Vertex) bounds {
		if b := memo[v.ID]; b.done {
			return b
		}
		vc, vs := vertexCost(p, r, v)
		sz += vs
		if r.Jump(v) != nil {
			sz += p.GotoSz
		}
		b := bounds{min: vc, max: vc, done: true}
		for k, n := 0, v.Arity(); v.Kind != sgraph.End && k < n; k++ {
			e := vc + edgeCost(p, r, v, k)
			cb := visit(v.Succ(k))
			if k == 0 || e+cb.min < b.min {
				b.min = e + cb.min
			}
			if k == 0 || e+cb.max > b.max {
				b.max = e + cb.max
			}
		}
		memo[v.ID] = b
		return b
	}
	root := visit(g.Begin)
	res.CodeBytes = entrySz + sz
	res.MinCycles = entryCyc + root.min
	res.MaxCycles = entryCyc + root.max
	if opts.UseFalsePaths {
		if mx, ok := maxWithFalsePaths(r, p, entryCyc); ok && mx < res.MaxCycles {
			res.MaxCycles = mx
		}
	}
	if opts.Scenario != nil {
		res.ExpectedCycles = expectedCycles(r, p, opts.Scenario, entryCyc)
	}

	// --- RAM: persistent state + copies + value copies + spill temps ---
	words := len(g.C.States) + copies + valueFetches + exprDepth(r.Order)
	res.DataBytes = int64(words * p.IntBytes)
	return res
}

// exprDepth returns the maximum binary-operator nesting over all
// expressions of the reachable vertices: the number of spill
// temporaries codegen allocates.
func exprDepth(reach []*sgraph.Vertex) int {
	max := 0
	note := func(d int) {
		if d > max {
			max = d
		}
	}
	for _, v := range reach {
		switch v.Kind {
		case sgraph.Test:
			for _, t := range v.Tests {
				if t.Kind == cfsm.TestPredicate {
					note(depthOf(t.Pred))
				}
			}
		case sgraph.Assign:
			a := v.Action
			if a.Kind == cfsm.ActEmit && a.Value != nil {
				note(depthOf(a.Value))
			}
			if a.Kind == cfsm.ActAssign {
				note(depthOf(a.Expr))
			}
		}
	}
	return max
}

// depthOf returns the number of spill temporaries expression e needs
// under the code generator's schema: a binary node holds one temporary
// while its right operand evaluates.
func depthOf(e expr.Expr) int {
	switch x := e.(type) {
	case *expr.Bin:
		l := depthOf(x.L)
		r := 1 + depthOf(x.R)
		if l > r {
			return l
		}
		return r
	case *expr.Un:
		return depthOf(x.X)
	default:
		return 0
	}
}
