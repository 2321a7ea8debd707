package codegen

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/expr"
	"polis/internal/randcfsm"
	"polis/internal/sgraph"
)

// referenceCopies is the path-enumerating write-before-read analysis
// the routine's copy analysis replaced, kept as its oracle: a DFS from BEGIN carrying
// each path's written-set, revisiting a vertex once per distinct
// written-set signature.
func referenceCopies(g *sgraph.SGraph) *CopyPlan {
	p := &CopyPlan{
		Read:      make(map[*cfsm.StateVar]bool),
		NeedCopy:  make(map[*cfsm.StateVar]bool),
		ValueRead: make(map[*cfsm.Signal]bool),
	}
	byName := make(map[string]*cfsm.StateVar)
	for _, sv := range g.C.States {
		byName[sv.Name] = sv
	}
	sigByName := make(map[string]*cfsm.Signal)
	for _, s := range g.C.Inputs {
		sigByName[s.Name] = s
	}
	noteReads := func(names []string, written map[*cfsm.StateVar]bool) {
		for _, n := range names {
			if len(n) > 0 && n[0] == '?' {
				if sig := sigByName[n[1:]]; sig != nil {
					p.ValueRead[sig] = true
				}
				continue
			}
			if sv := byName[n]; sv != nil {
				p.Read[sv] = true
				if written[sv] {
					p.NeedCopy[sv] = true
				}
			}
		}
	}
	type key struct {
		v   *sgraph.Vertex
		sig string
	}
	visited := make(map[key]bool)
	var walk func(v *sgraph.Vertex, written map[*cfsm.StateVar]bool, sig string)
	walk = func(v *sgraph.Vertex, written map[*cfsm.StateVar]bool, sig string) {
		k := key{v, sig}
		if visited[k] {
			return
		}
		visited[k] = true
		switch v.Kind {
		case sgraph.Begin:
			walk(v.Next, written, sig)
		case sgraph.End:
		case sgraph.Test:
			for _, t := range v.Tests {
				switch t.Kind {
				case cfsm.TestPredicate:
					noteReads(t.Pred.Vars(nil), written)
				case cfsm.TestSelector:
					p.Read[t.Sel] = true
					if written[t.Sel] {
						p.NeedCopy[t.Sel] = true
					}
				}
			}
			for _, c := range v.Children {
				walk(c, written, sig)
			}
		case sgraph.Assign:
			a := v.Action
			switch a.Kind {
			case cfsm.ActEmit:
				if a.Value != nil {
					noteReads(a.Value.Vars(nil), written)
				}
				walk(v.Next, written, sig)
			case cfsm.ActAssign:
				noteReads(a.Expr.Vars(nil), written)
				if !written[a.Var] {
					w2 := make(map[*cfsm.StateVar]bool, len(written)+1)
					for k := range written {
						w2[k] = true
					}
					w2[a.Var] = true
					walk(v.Next, w2, sig+"|"+a.Var.Name)
				} else {
					walk(v.Next, written, sig)
				}
			}
		}
	}
	walk(g.Begin, map[*cfsm.StateVar]bool{}, "")
	return p
}

// checkAgainstReference fails t unless the copy plan of g's routine
// equals the path-enumerating oracle, and returns the plan.
func checkAgainstReference(t *testing.T, name string, g *sgraph.SGraph) *CopyPlan {
	t.Helper()
	got, want := NewRoutine(g, Options{}).Plan, referenceCopies(g)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: copy plan differs from the path analysis:\n got %s\nwant %s",
			name, planString(g.C, got), planString(g.C, want))
	}
	return got
}

func planString(c *cfsm.CFSM, p *CopyPlan) string {
	s := ""
	for _, sv := range c.States {
		s += fmt.Sprintf(" %s:read=%t,copy=%t", sv.Name, p.Read[sv], p.NeedCopy[sv])
	}
	for _, sig := range c.Inputs {
		if p.ValueRead[sig] {
			s += " ?" + sig.Name
		}
	}
	return s
}

// TestCopiesMatchPathAnalysis compares the may-written DP with the
// path-enumerating oracle on random machines, before and after
// reduction, and checks the sample is not vacuous: some plans must
// trim a copy that the conservative copy-everything-read plan keeps.
func TestCopiesMatchPathAnalysis(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var needSome, trimmed int
	for i := 0; i < 200; i++ {
		cfg := randcfsm.DefaultConfig()
		if i%5 == 0 {
			cfg = randcfsm.Scaled(2)
		}
		c := randcfsm.New(rng, cfg).C
		for _, reduce := range []bool{false, true} {
			g := buildSG(t, c, sgraph.OrderSiftAfterSupport)
			if reduce {
				g.Reduce(sgraph.ReduceOptions{})
			}
			p := checkAgainstReference(t, fmt.Sprintf("machine %d reduce=%t", i, reduce), g)
			if len(p.NeedCopy) > 0 {
				needSome++
			}
			if len(p.NeedCopy) < len(p.Read) {
				trimmed++
			}
		}
	}
	if needSome == 0 || trimmed == 0 {
		t.Fatalf("vacuous sample: %d plans need a copy, %d trim one", needSome, trimmed)
	}
}

// TestCopyAfterJoin is the case a per-path analysis gets only by
// enumerating paths: x is written on one outcome of a TEST, y on the
// other, and both outcomes join at a shared vertex that reads x, so x
// needs a copy and y (never read) does not. Both placements of the
// write are run, so the writing branch reaches the join first in one
// and last in the other.
func TestCopyAfterJoin(t *testing.T) {
	for writeOn := 0; writeOn < 2; writeOn++ {
		c := cfsm.New("join")
		a := c.AddInput("a", true)
		o := c.AddOutput("o", false)
		x := c.AddState("x", 0, 0)
		y := c.AddState("y", 0, 0)
		pa := c.Present(a)
		// Declaration order puts the writes before the read under the
		// naive ordering.
		wx, wy, read := c.Assign(x, expr.C(1)), c.Assign(y, expr.C(2)), c.EmitV(o, expr.V("x"))
		c.AddTransition([]cfsm.Cond{cfsm.On(pa, writeOn)}, wx, read)
		c.AddTransition([]cfsm.Cond{cfsm.On(pa, 1-writeOn)}, wy, read)
		g := buildSG(t, c, sgraph.OrderNaive)

		joined := false
		parents := g.Parents()
		for _, v := range g.Reachable() {
			if v.Kind == sgraph.Assign && v.Action == read && parents[v.ID] == 2 {
				joined = true
			}
		}
		if !joined {
			t.Fatal("the emission is not a join of both TEST outcomes; the test lost its shape")
		}
		p := checkAgainstReference(t, fmt.Sprintf("join, x written on outcome %d", writeOn), g)
		if !p.NeedCopy[x] || !p.Read[x] || p.NeedCopy[y] {
			t.Errorf("x written on outcome %d: want a copy of x only, plan %s", writeOn, planString(c, p))
		}
	}
}

// TestCopiesWideState runs the analysis on a machine with more than 64
// state variables, so the may-written sets span two words, and puts
// the write-before-read pair in the second word.
func TestCopiesWideState(t *testing.T) {
	c := cfsm.New("wide")
	a := c.AddInput("a", true)
	var svs []*cfsm.StateVar
	for i := 0; i < 70; i++ {
		svs = append(svs, c.AddState(fmt.Sprintf("s%d", i), 0, int64(i)))
	}
	pa := c.Present(a)
	// A swap in the second word (s66, s67): whichever assignment comes
	// second reads what the first wrote. s3 is read and never written.
	c.AddTransition([]cfsm.Cond{cfsm.On(pa, 1)},
		c.Assign(svs[66], expr.V("s67")),
		c.Assign(svs[67], expr.Add(expr.V("s66"), expr.V("s3"))))
	g := buildSG(t, c, sgraph.OrderSiftAfterSupport)
	p := checkAgainstReference(t, "wide", g)
	if !p.NeedCopy[svs[66]] && !p.NeedCopy[svs[67]] {
		t.Errorf("the second assignment of the swap reads a written variable, plan %s", planString(c, p))
	}
	if !p.Read[svs[3]] || p.NeedCopy[svs[3]] {
		t.Errorf("s3 is read and never written, plan %s", planString(c, p))
	}
	if len(p.Read) != 3 {
		t.Errorf("read set has %d variables, want s3, s66 and s67", len(p.Read))
	}
}
