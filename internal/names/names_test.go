package names_test

import (
	"strings"
	"testing"

	"polis/internal/names"
	"polis/internal/pipeline"
	"polis/internal/randcfsm"
	"polis/internal/rtos"
	"polis/internal/sgraph"
	"polis/internal/sim"
	"polis/internal/vm"
)

// TestParseName: Parse inverts Name over a table, and an unknown name
// is an error listing every accepted name.
func TestParseName(t *testing.T) {
	table := []string{"a", "b", "c"}
	for i, n := range table {
		if got := names.Name(table, i); got != n {
			t.Errorf("Name(%d) = %q, want %q", i, got, n)
		}
		if v, err := names.Parse[int]("letter", table, n); err != nil || v != i {
			t.Errorf("Parse(%q) = %d, %v", n, v, err)
		}
	}
	for _, v := range []int{-1, 3} {
		if got := names.Name(table, v); got != "" {
			t.Errorf("Name(%d) = %q, want empty", v, got)
		}
	}
	_, err := names.Parse[int]("letter", table, "z")
	if err == nil || err.Error() != `unknown letter "z" (accepted: a, b, c)` {
		t.Errorf("unknown name: %v", err)
	}
}

// TestChoiceTables: each spelling the front ends accept resolves to
// the value it always named, each value's Name is its spelling, and an
// unknown name lists the accepted ones.
func TestChoiceTables(t *testing.T) {
	for name, want := range map[string]sgraph.Ordering{
		"default": sgraph.OrderSiftAfterSupport, "naive": sgraph.OrderNaive,
		"inputs-first": sgraph.OrderSiftInputsFirst, "sift": sgraph.OrderSiftAfterSupport,
	} {
		if got, err := sgraph.ParseOrdering(name); err != nil || got != want || (name != "sift" && got.Name() != name) {
			t.Errorf("ordering %q resolves to %v (named %q), %v", name, got, got.Name(), err)
		}
	}
	for name, want := range map[string]rtos.Policy{"rr": rtos.RoundRobin, "prio": rtos.StaticPriority} {
		if got, err := rtos.ParsePolicy(name); err != nil || got != want || got.Name() != name {
			t.Errorf("policy %q resolves to %v (named %q), %v", name, got, got.Name(), err)
		}
	}
	for name, want := range map[string]sim.Mode{"vm": sim.VMExact, "behavioral": sim.Behavioral} {
		if got, err := sim.ParseMode(name); err != nil || got != want || got.Name() != name {
			t.Errorf("mode %q resolves to %d (named %q), %v", name, got, got.Name(), err)
		}
	}
	for _, topo := range []randcfsm.Topology{randcfsm.TopoIndependent, randcfsm.TopoChain, randcfsm.TopoDAG} {
		if got, err := randcfsm.ParseTopology(topo.String()); err != nil || got != topo {
			t.Errorf("topology %v resolves to %v, %v", topo, got, err)
		}
	}
	for _, c := range []struct {
		err  error
		want string
	}{
		{second(vm.Target("z80")), "hc11, r3k"},
		{second(sgraph.ParseOrdering("sorted")), "default, naive, inputs-first"},
		{second(rtos.ParsePolicy("edf")), "rr, prio"},
		{second(sim.ParseMode("bogus")), "behavioral, vm"},
	} {
		if c.err == nil || !strings.Contains(c.err.Error(), "(accepted: "+c.want+")") {
			t.Errorf("unknown name: %v, want the accepted names %s", c.err, c.want)
		}
	}
}

func second[T any](_ T, err error) error { return err }

// TestTargetShared: vm.Target hands out one instance per built-in
// target, and a nil pipeline target resolves to its hc11.
func TestTargetShared(t *testing.T) {
	for _, want := range []*vm.Profile{vm.HC11(), vm.R3K()} {
		a, err := vm.Target(want.Name)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := vm.Target(want.Name)
		if a != b || a.Name != want.Name || a.ClockKHz != want.ClockKHz {
			t.Errorf("target %s: instances %p and %p, clock %d", want.Name, a, b, a.ClockKHz)
		}
	}
	if hc11, _ := vm.Target("hc11"); pipeline.DefaultTarget() != hc11 {
		t.Error("pipeline.DefaultTarget is not vm.Target(\"hc11\")")
	}
}
