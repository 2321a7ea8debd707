package codegen

import (
	"math/rand"
	"strconv"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/randcfsm"
	"polis/internal/sgraph"
	"polis/internal/vm"
)

// randomDense draws a dense snapshot over the machine's inputs and
// state; absent inputs keep a zero value, as the runtime's buffers do.
func randomDense(rm *randcfsm.Machine, lay *cfsm.Layout) *cfsm.DenseSnapshot {
	d := lay.NewDense()
	for i, in := range lay.Ins {
		d.Present[i] = rm.Rng.Intn(2) == 1
		if d.Present[i] && !in.Pure {
			d.Values[i] = rm.Rng.Int63n(rm.Range)
		}
	}
	for i, sv := range lay.States {
		if sv.Domain > 0 {
			d.State[i] = int64(rm.Rng.Intn(sv.Domain))
		} else {
			d.State[i] = rm.Rng.Int63n(rm.Range)
		}
	}
	return d
}

// TestMachineFiredMatchesReact is the property behind the fires mark:
// over random machines, with and without s-graph reduction, the
// machine's fired flag after one reaction equals the reference
// interpreter's fired bit on the same snapshot.
func TestMachineFiredMatchesReact(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var fired, idle int
	for i := 0; i < 30; i++ {
		rm := randcfsm.New(rng, randcfsm.DefaultConfig())
		c := rm.C
		lay := cfsm.NewLayout(c)
		sigs := NewSignalMap(c)
		for _, reduce := range []bool{false, true} {
			g := buildSG(t, c, sgraph.OrderSiftAfterSupport)
			if reduce {
				g.Reduce(sgraph.ReduceOptions{})
			}
			p, err := Assemble(g, sigs, Options{OptimizeCopies: reduce})
			if err != nil {
				t.Fatal(err)
			}
			h := newSnapHost(sigs, cfsm.Snapshot{})
			m := vm.NewMachine(vm.HC11(), p.Words, h)
			for k := 0; k < 60; k++ {
				d := randomDense(rm, lay)
				h.snap = d.Snapshot()
				for j, sv := range lay.States {
					m.Mem[p.Symbols["st_"+sv.Name]] = d.State[j]
				}
				if _, err := m.Run(p, EntryLabel(c)); err != nil {
					t.Fatalf("%s: %v", c.Name, err)
				}
				if want := c.React(h.snap).Fired; m.Fired != want {
					t.Fatalf("%s (reduce=%v) snapshot %d: Fired = %v, React says %v\n%s",
						c.Name, reduce, k, m.Fired, want, p.Listing())
				}
				if m.Fired {
					fired++
				} else {
					idle++
				}
			}
		}
	}
	if fired == 0 || idle == 0 {
		t.Fatalf("vacuous property: %d fired and %d idle reactions", fired, idle)
	}
}

// TestFiresMarks checks where Assemble puts the fires mark: exactly one
// marked instruction in the code of each reachable ASSIGN vertex, and
// none in the prologue or in the code of BEGIN, END and TEST vertices.
// Each vertex's code runs from its label to the next vertex's label.
func TestFiresMarks(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	machines := []*cfsm.CFSM{simple(), counter(), swapper(), exclusiveTimer()}
	for i := 0; i < 20; i++ {
		machines = append(machines, randcfsm.New(rng, randcfsm.DefaultConfig()).C)
	}
	for _, c := range machines {
		for _, reduce := range []bool{false, true} {
			g := buildSG(t, c, sgraph.OrderSiftAfterSupport)
			if reduce {
				g.Reduce(sgraph.ReduceOptions{})
			}
			p, err := Assemble(g, NewSignalMap(c), Options{IfThreshold: 3})
			if err != nil {
				t.Fatal(err)
			}
			order := g.Reachable()
			labelAt := func(v *sgraph.Vertex) int {
				name := vertexLabels + strconv.Itoa(v.ID)
				pc, ok := p.LabelAt(name)
				if !ok {
					t.Fatalf("%s: vertex %s has no label", c.Name, name)
				}
				return pc
			}
			first := labelAt(order[0])
			for pc := 0; pc < first; pc++ {
				if p.Instrs[pc].Fires {
					t.Errorf("%s: prologue instruction %d is marked", c.Name, pc)
				}
			}
			assigns := 0
			for k, v := range order {
				from, to := labelAt(v), len(p.Instrs)
				if k+1 < len(order) {
					to = labelAt(order[k+1])
				}
				marks := 0
				for pc := from; pc < to; pc++ {
					if p.Instrs[pc].Fires {
						marks++
					}
				}
				want := 0
				if v.Kind == sgraph.Assign {
					want = 1
					assigns++
				}
				if marks != want {
					t.Errorf("%s (reduce=%v): vertex v%d has %d marked instructions, want %d",
						c.Name, reduce, v.ID, marks, want)
				}
			}
			if assigns == 0 {
				t.Errorf("%s: no reachable ASSIGN vertex", c.Name)
			}
		}
	}
}
