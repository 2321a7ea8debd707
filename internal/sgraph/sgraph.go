// Package sgraph implements the software graph (s-graph) of Section
// III of the paper: a directed acyclic control/data-flow graph with
// BEGIN, END, TEST and ASSIGN vertices that represents the software
// implementation of one CFSM transition function. The s-graph is built
// from the BDD of the CFSM's characteristic function (Theorem 1), is
// in one-to-one correspondence with the statements of the generated C
// code, and is the structure on which code size and execution time are
// estimated.
package sgraph

import (
	"fmt"
	"sort"
	"strings"

	"polis/internal/cfsm"
	"polis/internal/names"
)

// Kind enumerates s-graph vertex types (Definition 1).
type Kind int

// Vertex kinds.
const (
	Begin Kind = iota
	End
	Test
	Assign
)

var kindNames = []string{Begin: "BEGIN", End: "END", Test: "TEST", Assign: "ASSIGN"}

func (k Kind) String() string { return names.Name(kindNames, k) }

// Vertex is one s-graph node. A TEST vertex carries one or more
// primitive tests (more than one after TEST-node collapsing) and one
// child per combined outcome; the paper's footnote 3 allows more than
// two children, which multi-valued selector tests use directly. BEGIN
// and ASSIGN vertices have a single Next child.
type Vertex struct {
	ID   int
	Kind Kind

	// Test vertices.
	Tests    []*cfsm.Test
	Children []*Vertex // length = product of test arities

	// Hot, when non-nil, is a permutation of the outcome indices of a
	// TEST vertex ordered hottest-first, set by the profile-guided
	// Specialize pass. It is purely advisory layout/emission guidance:
	// Children stays indexed by the semantic combined outcome, so
	// evaluation and the equivalence checks never consult it. Code
	// generation places Hot[0] on the fall-through arc and tests the
	// remaining outcomes in Hot order; a nil Hot means the legacy
	// layout (outcome 0 falls through), which Specialize preserves by
	// normalising identity permutations back to nil.
	Hot []int

	// Assign vertices.
	Action *cfsm.Action
	Next   *Vertex
}

// Arity returns the number of outgoing edges of a TEST vertex.
func (v *Vertex) Arity() int {
	n := 1
	for _, t := range v.Tests {
		n *= t.Arity()
	}
	return n
}

// Succ returns v's k-th successor: Children[k] of a TEST, Next of
// BEGIN and ASSIGN (k is 0; Arity is 1).
func (v *Vertex) Succ(k int) *Vertex {
	if v.Kind == Test {
		return v.Children[k]
	}
	return v.Next
}

// OutcomeAt maps an emission position to the semantic outcome index
// laid out there: Hot[pos] when a hot order is set, pos otherwise.
func (v *Vertex) OutcomeAt(pos int) int {
	if v.Hot != nil {
		return v.Hot[pos]
	}
	return pos
}

// HotPos is the inverse of OutcomeAt: the emission position of
// semantic outcome k. Position 0 is the fall-through arm; higher
// positions are tested (and so cost more) in order. Arities are tiny,
// so the linear scan beats keeping an inverse table coherent.
func (v *Vertex) HotPos(k int) int {
	if v.Hot == nil {
		return k
	}
	for pos, o := range v.Hot {
		if o == k {
			return pos
		}
	}
	return k // unreachable on well-formed graphs
}

// FallIdx returns the semantic outcome index code generation places on
// the fall-through arc: the hottest outcome when a hot order is set,
// outcome 0 otherwise.
func (v *Vertex) FallIdx() int {
	if len(v.Hot) > 0 {
		return v.Hot[0]
	}
	return 0
}

// SGraph is a complete software graph for one CFSM.
//
// Vertex IDs are dense: only newVertex and Clone create vertices,
// newVertex numbers them 0, 1, 2, ... in creation order, Clone copies
// the IDs and the bound, and no pass renumbers (Reduce and
// CollapseTests only drop vertices). So every vertex of g has a unique
// ID in [0, IDBound()), and per-vertex state is a slice indexed by ID
// rather than a map keyed by pointer.
type SGraph struct {
	C        *cfsm.CFSM
	Begin    *Vertex
	End      *Vertex
	Vertices []*Vertex // all vertices, Begin first, in creation order

	idBound int // one past the largest vertex ID ever issued
}

// newVertex appends a vertex to the graph.
func (g *SGraph) newVertex(k Kind) *Vertex {
	v := &Vertex{ID: g.idBound, Kind: k}
	g.idBound++
	g.Vertices = append(g.Vertices, v)
	return v
}

// IDBound returns one past the largest vertex ID of g: a slice of this
// length can hold per-vertex state indexed by Vertex.ID.
func (g *SGraph) IDBound() int { return g.idBound }

// Stats summarises the structure of an s-graph.
type Stats struct {
	Vertices int
	Tests    int
	Assigns  int
	Edges    int
	// Depth is the maximum number of vertices on a BEGIN-to-END
	// path; with the outputs-after-support ordering each input is
	// tested at most once per path, so Depth bounds execution time.
	Depth int
	// Paths is the number of distinct BEGIN-to-END paths (capped at
	// 1<<62 to avoid overflow on pathological graphs).
	Paths int64
}

// ComputeStats traverses the graph once and returns its statistics.
func (g *SGraph) ComputeStats() Stats {
	var s Stats
	depth := make([]int, g.idBound) // 0 = not visited yet; depths are >= 1
	paths := make([]int64, g.idBound)
	var walk func(v *Vertex) (int, int64)
	walk = func(v *Vertex) (int, int64) {
		if d := depth[v.ID]; d != 0 {
			return d, paths[v.ID]
		}
		s.Vertices++
		var d int
		var p int64
		switch v.Kind {
		case End:
			d, p = 1, 1
		case Test:
			s.Tests++
			for _, c := range v.Children {
				s.Edges++
				cd, cp := walk(c)
				if cd+1 > d {
					d = cd + 1
				}
				p += cp
				if p < 0 || p > 1<<62 {
					p = 1 << 62
				}
			}
		default: // Begin, Assign
			if v.Kind == Assign {
				s.Assigns++
			}
			s.Edges++
			cd, cp := walk(v.Next)
			d, p = cd+1, cp
		}
		depth[v.ID] = d
		paths[v.ID] = p
		return d, p
	}
	d, p := walk(g.Begin)
	s.Depth = d
	s.Paths = p
	return s
}

// Evaluate executes the s-graph under a snapshot, implementing the
// paper's procedure evaluate: tests are evaluated as TEST vertices are
// reached, actions execute as soon as their ASSIGN vertex is visited.
// All expression reads see the pre-reaction state (copy-on-entry), so
// the result matches cfsm.CFSM.React for a functional s-graph. Fired
// reports whether any ASSIGN vertex was visited, which is what the
// RTOS uses to decide whether input events were consumed.
func (g *SGraph) Evaluate(snap cfsm.Snapshot) cfsm.Reaction {
	next := make(map[*cfsm.StateVar]int64, len(snap.State))
	for v, val := range snap.State {
		next[v] = val
	}
	r := cfsm.Reaction{NextState: next}
	env := snap.Env()
	v := g.Begin
	for v.Kind != End {
		switch v.Kind {
		case Begin:
			v = v.Next
		case Test:
			idx := 0
			for _, t := range v.Tests {
				idx = idx*t.Arity() + snap.EvalTest(t)
			}
			v = v.Children[idx]
		case Assign:
			r.Fired = true
			a := v.Action
			switch a.Kind {
			case cfsm.ActEmit:
				em := cfsm.Emission{Signal: a.Signal}
				if a.Value != nil {
					em.Value = a.Value.Eval(env)
				}
				r.Emitted = append(r.Emitted, em)
			case cfsm.ActAssign:
				next[a.Var] = a.Expr.Eval(env)
			}
			v = v.Next
		}
	}
	return r
}

// CheckWellFormed verifies Definition 1 invariants: a single BEGIN
// source, a single END sink, TEST vertices with the right number of
// children, acyclicity, and that all vertices are reachable.
func (g *SGraph) CheckWellFormed() error {
	if g.Begin == nil || g.Begin.Kind != Begin {
		return fmt.Errorf("sgraph: missing BEGIN")
	}
	if g.End == nil || g.End.Kind != End {
		return fmt.Errorf("sgraph: missing END")
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	// A vertex not numbered by this graph (hand-wired, or from another
	// graph) would index outside the colour table.
	badID := func(v *Vertex) error {
		if v.ID < 0 || v.ID >= g.idBound {
			return fmt.Errorf("sgraph: vertex id %d outside [0, %d)", v.ID, g.idBound)
		}
		return nil
	}
	// Iterative grey/black DFS with an explicit frame stack: deep
	// TEST chains from large random networks must not overflow the
	// goroutine stack (same precedent as the BDD kernel's iterative
	// walks). Structure checks run on first visit, preserving the
	// recursive version's error order.
	check := func(v *Vertex) error {
		switch v.Kind {
		case Test:
			if len(v.Tests) == 0 {
				return fmt.Errorf("sgraph: TEST vertex %d with no tests", v.ID)
			}
			if len(v.Children) != v.Arity() {
				return fmt.Errorf("sgraph: TEST vertex %d has %d children, want %d",
					v.ID, len(v.Children), v.Arity())
			}
			if v.Hot != nil {
				if len(v.Hot) != v.Arity() {
					return fmt.Errorf("sgraph: TEST vertex %d hot order has %d entries, want %d",
						v.ID, len(v.Hot), v.Arity())
				}
				hseen := make([]bool, v.Arity())
				for _, k := range v.Hot {
					if k < 0 || k >= v.Arity() || hseen[k] {
						return fmt.Errorf("sgraph: TEST vertex %d hot order is not a permutation of outcomes", v.ID)
					}
					hseen[k] = true
				}
			}
		case Begin, Assign:
			if v.Kind == Assign && v.Action == nil {
				return fmt.Errorf("sgraph: ASSIGN vertex %d with no action", v.ID)
			}
			if v.Next == nil {
				return fmt.Errorf("sgraph: vertex %d has no next", v.ID)
			}
		}
		return nil
	}
	childAt := func(v *Vertex, i int) *Vertex {
		switch v.Kind {
		case Test:
			if i < len(v.Children) {
				return v.Children[i]
			}
		case Begin, Assign:
			if i == 0 {
				return v.Next
			}
		}
		return nil
	}
	for _, v := range [...]*Vertex{g.Begin, g.End} {
		if err := badID(v); err != nil {
			return err
		}
	}
	color := make([]uint8, g.idBound)
	type frame struct {
		v    *Vertex
		next int
	}
	if err := check(g.Begin); err != nil {
		return err
	}
	color[g.Begin.ID] = grey
	stack := []frame{{g.Begin, 0}}
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		c := childAt(f.v, f.next)
		if c == nil {
			color[f.v.ID] = black
			stack = stack[:len(stack)-1]
			continue
		}
		f.next++
		if err := badID(c); err != nil {
			return err
		}
		switch color[c.ID] {
		case grey:
			return fmt.Errorf("sgraph: cycle through vertex %d", c.ID)
		case black:
			continue
		}
		if err := check(c); err != nil {
			return err
		}
		color[c.ID] = grey
		stack = append(stack, frame{c, 0})
	}
	if color[g.End.ID] != black {
		return fmt.Errorf("sgraph: END not reachable from BEGIN")
	}
	for _, v := range g.Vertices {
		if badID(v) != nil || color[v.ID] != black {
			return fmt.Errorf("sgraph: vertex %d unreachable", v.ID)
		}
	}
	return nil
}

// Reachable returns the vertices reachable from BEGIN in a stable
// DFS preorder (each vertex before anything first discovered through
// it). Code generation lays statements out in exactly this order, so
// the traversal below must stay byte-identical to the recursive
// preorder it replaced; the explicit stack (children pushed in
// reverse, seen-check on pop) visits the same sequence without
// growing the goroutine stack on deep TEST chains. TEST children are
// walked in emission order (OutcomeAt), so a specialized vertex lays
// its hot fall-through subgraph out first and Hot=nil graphs keep the
// historical layout exactly.
func (g *SGraph) Reachable() []*Vertex {
	order := make([]*Vertex, 0, len(g.Vertices))
	seen := make([]bool, g.idBound)
	stack := []*Vertex{g.Begin}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[v.ID] {
			continue
		}
		seen[v.ID] = true
		order = append(order, v)
		switch v.Kind {
		case Test:
			for p := len(v.Children) - 1; p >= 0; p-- {
				if c := v.Children[v.OutcomeAt(p)]; !seen[c.ID] {
					stack = append(stack, c)
				}
			}
		case Begin, Assign:
			if !seen[v.Next.ID] {
				stack = append(stack, v.Next)
			}
		}
	}
	return order
}

// Clone returns a deep copy of the graph structure. Vertex structs are
// duplicated (so Hot orders and wiring can diverge) while the
// immutable leaves — tests, actions, and the owning CFSM — stay
// shared, which is what CheckEquivalent's pointer-based comparisons
// require.
func (g *SGraph) Clone() *SGraph {
	m := make([]*Vertex, g.idBound) // original ID -> copy
	ng := &SGraph{C: g.C, Vertices: make([]*Vertex, 0, len(g.Vertices)), idBound: g.idBound}
	for _, v := range g.Vertices {
		nv := &Vertex{ID: v.ID, Kind: v.Kind, Action: v.Action}
		if v.Tests != nil {
			nv.Tests = append([]*cfsm.Test(nil), v.Tests...)
		}
		if v.Hot != nil {
			nv.Hot = append([]int(nil), v.Hot...)
		}
		m[v.ID] = nv
		ng.Vertices = append(ng.Vertices, nv)
	}
	for _, v := range g.Vertices {
		nv := m[v.ID]
		if v.Next != nil {
			nv.Next = m[v.Next.ID]
		}
		if v.Children != nil {
			nv.Children = make([]*Vertex, len(v.Children))
			for i, c := range v.Children {
				nv.Children[i] = m[c.ID]
			}
		}
	}
	ng.Begin = m[g.Begin.ID]
	ng.End = m[g.End.ID]
	return ng
}

// Parents computes the in-degree of each reachable vertex, indexed by
// vertex ID (zero for unreachable IDs).
func (g *SGraph) Parents() []int32 {
	in := make([]int32, g.idBound)
	for _, v := range g.Reachable() {
		switch v.Kind {
		case Test:
			for _, c := range v.Children {
				in[c.ID]++
			}
		case Begin, Assign:
			in[v.Next.ID]++
		}
	}
	return in
}

// Dot renders the graph in Graphviz format for inspection.
func (g *SGraph) Dot() string {
	var b strings.Builder
	fmt.Fprintf(&b, "digraph %q {\n  rankdir=TB;\n", g.C.Name)
	vs := g.Reachable()
	sort.Slice(vs, func(i, j int) bool { return vs[i].ID < vs[j].ID })
	for _, v := range vs {
		label := v.Kind.String()
		switch v.Kind {
		case Test:
			names := make([]string, len(v.Tests))
			for i, t := range v.Tests {
				names[i] = t.Name()
			}
			label = strings.Join(names, ",")
		case Assign:
			label = v.Action.Name()
		}
		fmt.Fprintf(&b, "  n%d [label=%q];\n", v.ID, label)
		switch v.Kind {
		case Test:
			for i, c := range v.Children {
				fmt.Fprintf(&b, "  n%d -> n%d [label=\"%d\"];\n", v.ID, c.ID, i)
			}
		case Begin, Assign:
			fmt.Fprintf(&b, "  n%d -> n%d;\n", v.ID, v.Next.ID)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
