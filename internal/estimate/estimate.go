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
	// transition under Options.ScenarioProfile: each observed outcome
	// vector's path is costed exactly and weighted by its observed
	// frequency. Zero when no profile is supplied (or none of its
	// vectors cover this graph's tests); compare against MaxCycles to
	// see what specialization buys on the scenario actually running.
	ExpectedCycles int64
}

// Micros converts cycles to microseconds under the target clock.
func (r Result) Micros(p *Params, cycles int64) float64 {
	return float64(cycles) * 1000.0 / float64(p.ClockKHz)
}

// Options tunes the estimator.
type Options struct {
	// Codegen mirrors the code-generation options the estimate
	// should assume (copy optimisation, if/switch threshold).
	Codegen codegen.Options
	// UseFalsePaths enables pruning of statically infeasible paths
	// using the CFSM's mutual-exclusion information ("event
	// incompatibility relations"), tightening MaxCycles.
	UseFalsePaths bool
	// ScenarioProfile, when set, adds the profile-weighted
	// ExpectedCycles figure to the result. It is the same evidence the
	// specialization pass consumes, so worst-case and expected-case
	// can be read off one estimate.
	ScenarioProfile *sgraph.SpecializeProfile
}

// vertexCost is the estimated cycles of the vertex body (excluding
// per-edge costs) and its code size.
func vertexCost(p *Params, opts Options, v *sgraph.Vertex) (cyc, sz int64) {
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
		threshold := opts.Codegen.IfThreshold
		if threshold == 0 {
			threshold = 2
		}
		if int(arity) <= threshold {
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
// edge out of v. Costs attach to emission positions, not outcome
// indices: position 0 is the fall-through arm, later positions pay
// progressively more comparisons. On an unspecialized vertex position
// and index coincide; a Hot order permutes which outcome sits where,
// which is exactly how specialization makes the hot arm cheap.
func edgeCost(p *Params, opts Options, v *sgraph.Vertex, k int) int64 {
	if v.Kind != sgraph.Test {
		return 0
	}
	pos := v.HotPos(k)
	if len(v.Tests) == 1 && v.Tests[0].Arity() == 2 {
		t := v.Tests[0]
		if t.Kind == cfsm.TestPresence {
			return p.TestPresenceCyc[pos]
		}
		return p.TestBoolCyc[pos]
	}
	threshold := opts.Codegen.IfThreshold
	if threshold == 0 {
		threshold = 2
	}
	if v.Arity() <= threshold {
		// The arm at emission position pos pays pos comparisons
		// before its branch hits.
		return int64(pos) * (p.ExprConstCyc + p.TestBoolCyc[1])
	}
	// Jump-table dispatch is uniform in reality; the per-edge model
	// keeps the historical position-proportional approximation.
	return int64(pos) * p.TestMultiPerEdgeCyc
}

// layout is the generated code's statement order: the DFS preorder
// of the reachable vertices, as the emitters lay them out, and each
// vertex's position in it by vertex ID.
type layout struct {
	order []*sgraph.Vertex
	pos   []int32
}

func newLayout(g *sgraph.SGraph) layout {
	l := layout{order: g.Reachable(), pos: make([]int32, g.IDBound())}
	for i, v := range l.order {
		l.pos[v.ID] = int32(i)
	}
	return l
}

// fallsThrough reports whether w's statement directly follows v's, so
// the edge from v to w needs no goto.
func (l layout) fallsThrough(v, w *sgraph.Vertex) bool {
	i := int(l.pos[v.ID]) + 1
	return i < len(l.order) && l.order[i] == w
}

// EstimateSGraph computes the estimate by a single traversal of the
// s-graph, as the paper's estimator does: code size is the sum of the
// per-vertex size parameters, timing bounds come from shortest and
// longest path.
func EstimateSGraph(g *sgraph.SGraph, p *Params, opts Options) Result {
	var res Result
	plan := codegen.AnalyzeCopies(g)

	// --- entry overhead ---
	var entryCyc, entrySz int64
	entryCyc += p.CallReturnCyc
	entrySz += p.CallReturnSz
	copies := 0
	for _, sv := range g.C.States {
		need := plan.Read[sv]
		if opts.Codegen.OptimizeCopies {
			need = plan.NeedCopy[sv]
		}
		if need {
			copies++
			entryCyc += p.LocalCopyCyc
			entrySz += p.LocalCopySz
		}
	}
	valueFetches := 0
	for _, sig := range g.C.Inputs {
		if !sig.Pure && plan.ValueRead[sig] {
			valueFetches++
			entryCyc += p.ValueFetchCyc
			entrySz += p.ValueFetchSz
		}
	}

	// --- per-vertex size, and timing DP over the DAG ---
	lay := newLayout(g)
	var sz int64
	// The emitter falls through to the DFS-next vertex; every other
	// edge needs a goto: fold the goto bytes into code size and the
	// goto time into the corresponding edge. Shortest/longest path
	// over the DAG by memoised recursion (DFS pre-order is not a
	// reverse-topological order when children are shared).
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
		vc, vs := vertexCost(p, opts, v)
		sz += vs
		b := bounds{done: true}
		switch v.Kind {
		case sgraph.End:
			b.min, b.max = vc, vc
		case sgraph.Test:
			first := true
			for k, w := range v.Children {
				e := edgeCost(p, opts, v, k)
				if !lay.fallsThrough(v, w) && k == v.FallIdx() {
					// FallIdx is the fall-through arm in the generated
					// code; a displaced child needs a goto.
					e += p.GotoCyc
					sz += p.GotoSz
				}
				cb := visit(w)
				cMin := vc + e + cb.min
				cMax := vc + e + cb.max
				if first {
					b.min, b.max = cMin, cMax
					first = false
					continue
				}
				if cMin < b.min {
					b.min = cMin
				}
				if cMax > b.max {
					b.max = cMax
				}
			}
		default: // Begin, Assign
			e := int64(0)
			if !lay.fallsThrough(v, v.Next) {
				e = p.GotoCyc
				sz += p.GotoSz
			}
			cb := visit(v.Next)
			b.min, b.max = vc+e+cb.min, vc+e+cb.max
		}
		memo[v.ID] = b
		return b
	}
	root := visit(g.Begin)
	res.CodeBytes = entrySz + sz
	res.MinCycles = entryCyc + root.min
	res.MaxCycles = entryCyc + root.max
	if opts.UseFalsePaths {
		if mx, ok := maxWithFalsePaths(g, p, opts, lay, entryCyc); ok && mx < res.MaxCycles {
			res.MaxCycles = mx
		}
	}
	if opts.ScenarioProfile != nil {
		res.ExpectedCycles = expectedCycles(g, p, opts, lay, entryCyc)
	}

	// --- RAM: persistent state + copies + value copies + spill temps ---
	words := len(g.C.States) + copies + valueFetches + exprDepth(lay.order)
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
