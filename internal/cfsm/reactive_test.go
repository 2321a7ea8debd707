package cfsm_test

import (
	"math/rand"
	"reflect"
	"testing"

	"polis/internal/bdd"
	"polis/internal/cfsm"
	"polis/internal/designs"
	"polis/internal/mvar"
	"polis/internal/randcfsm"
)

// TestSiftConsumesActFuncs checks the contract of both sift methods:
// they reset ActFuncs, leave the characteristic
// function unchanged on every assignment, and, for the support-based
// order, place each output below every input of the supports taken
// before sifting.
func TestSiftConsumesActFuncs(t *testing.T) {
	var machines []*cfsm.CFSM
	r := rand.New(rand.NewSource(11))
	for i := 0; i < 30; i++ {
		machines = append(machines, randcfsm.New(r, randcfsm.DefaultConfig()).C)
	}
	machines = append(machines, designs.NewDashboard().Modules()...)
	checked := 0
	for _, c := range machines {
		for _, sift := range []struct {
			name string
			run  func(*cfsm.Reactive)
		}{
			{"after-support", (*cfsm.Reactive).SiftOutputsAfterSupport},
			{"after-all-inputs", (*cfsm.Reactive).SiftOutputsAfterAllInputs},
		} {
			re, err := cfsm.BuildReactive(c)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := cfsm.BuildReactive(c)
			if err != nil {
				t.Fatal(err)
			}
			sup := re.Supports()
			if !reflect.DeepEqual(supportNames(sup), supportNames(fresh.Supports())) {
				t.Fatalf("%s: supports differ between two builds", c.Name)
			}
			assigns := allAssignments(re)
			var before []bool
			for _, a := range assigns {
				before = append(before, re.EvalChi(a.tests, a.acts))
			}
			sift.run(re)
			if re.ActFuncs != nil {
				t.Fatalf("%s/%s: ActFuncs %v after sifting; want nil", c.Name, sift.name, re.ActFuncs)
			}
			for i, a := range assigns {
				if got := re.EvalChi(a.tests, a.acts); got != before[i] {
					t.Fatalf("%s/%s: chi%v = %v after sifting, %v before",
						c.Name, sift.name, a, got, before[i])
				}
			}
			if sift.name == "after-support" {
				m := re.Space.M
				for out, ins := range sup {
					for _, in := range ins {
						if maxLevel(m, in) >= minLevel(m, out) {
							t.Errorf("%s: output %s sifted above input %s of its support",
								c.Name, out.Name, in.Name)
						}
					}
				}
			}
			if len(assigns) > 0 {
				checked++
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d reactive functions were small enough to enumerate", checked)
	}
}

type assignment struct {
	tests []int
	acts  []bool
}

// allAssignments enumerates every test-outcome and action-flag
// vector of r, or none when there are more than 1<<12.
func allAssignments(r *cfsm.Reactive) []assignment {
	n := 1 << len(r.ActVars)
	for _, v := range r.TestVars {
		n *= v.Size
		if n > 1<<12 {
			return nil
		}
	}
	out := make([]assignment, 0, n)
	for k := 0; k < n; k++ {
		a := assignment{tests: make([]int, len(r.TestVars)), acts: make([]bool, len(r.ActVars))}
		x := k
		for i, v := range r.TestVars {
			a.tests[i] = x % v.Size
			x /= v.Size
		}
		for j := range a.acts {
			a.acts[j] = x&1 != 0
			x >>= 1
		}
		out = append(out, a)
	}
	return out
}

// supportNames renders a support map by variable names, so supports
// from two spaces compare.
func supportNames(sup map[*mvar.MV][]*mvar.MV) map[string][]string {
	out := make(map[string][]string, len(sup))
	for out1, ins := range sup {
		names := []string{}
		for _, in := range ins {
			names = append(names, in.Name)
		}
		out[out1.Name] = names
	}
	return out
}

func minLevel(m *bdd.Manager, v *mvar.MV) int {
	lvl := m.NumVars()
	for _, b := range v.Bits {
		lvl = min(lvl, m.Level(b))
	}
	return lvl
}

func maxLevel(m *bdd.Manager, v *mvar.MV) int {
	lvl := -1
	for _, b := range v.Bits {
		lvl = max(lvl, m.Level(b))
	}
	return lvl
}
