package profile_test

import (
	"bytes"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/expr"
	"polis/internal/profile"
	"polis/internal/rtos"
)

// module builds a small two-test CFSM for driving the collector.
func module(name string) *cfsm.CFSM {
	c := cfsm.New(name)
	in := c.AddInput("c", false)
	y := c.AddOutput("y", true)
	a := c.AddState("a", 0, 0)
	pc := c.Present(in)
	eq := c.Pred(expr.Eq(expr.V("a"), expr.V("?c")))
	c.AddTransition([]cfsm.Cond{cfsm.On(pc, 1), cfsm.On(eq, 1)},
		c.Assign(a, expr.C(0)), c.Emit(y))
	c.AddTransition([]cfsm.Cond{cfsm.On(pc, 1), cfsm.On(eq, 0)},
		c.Assign(a, expr.Add(expr.V("a"), expr.C(1))))
	return c
}

// snap builds a snapshot with the input present/valued as given.
func snap(c *cfsm.CFSM, present bool, val, state int64) cfsm.Snapshot {
	s := c.NewSnapshot()
	in := c.Inputs[0]
	s.Present[in] = present
	s.Values[in] = val
	s.State[c.States[0]] = state
	return s
}

func TestCollectorAggregates(t *testing.T) {
	c := module("m")
	task := &rtos.Task{M: c}
	col := profile.NewCollector()

	// 3x (present, pred true), 1x (present, pred false), 2x absent.
	for i := 0; i < 3; i++ {
		col.TaskBegan(task, snap(c, true, 4, 4), 0)
		col.TaskFinished(task, cfsm.Reaction{Fired: true}, 10, 0)
	}
	col.TaskBegan(task, snap(c, true, 4, 1), 0)
	col.TaskFinished(task, cfsm.Reaction{Fired: true}, 12, 0)
	for i := 0; i < 2; i++ {
		col.TaskBegan(task, snap(c, false, 0, 0), 0)
		col.TaskFinished(task, cfsm.Reaction{}, 3, 0)
	}

	p := col.Profile()
	mp := p.Module("m")
	if mp == nil {
		t.Fatal("module aggregate missing")
	}
	if mp.Reactions != 6 || mp.Fired != 4 || mp.Cycles != 48 {
		t.Fatalf("reactions=%d fired=%d cycles=%d", mp.Reactions, mp.Fired, mp.Cycles)
	}
	if len(mp.TestNames) != len(c.Tests) {
		t.Fatalf("test columns %d, want %d", len(mp.TestNames), len(c.Tests))
	}
	var total int64
	for _, n := range mp.Outcomes {
		total += n
	}
	if total != 6 {
		t.Fatalf("outcome observations %d, want 6", total)
	}
	if len(mp.Outcomes) != 3 {
		t.Fatalf("distinct outcome vectors %d, want 3: %v", len(mp.Outcomes), mp.Outcomes)
	}
	if sp := mp.Spec(); sp == nil || len(sp.Outcomes) != 3 {
		t.Fatal("Spec conversion lost outcomes")
	}
	if p.Module("other") != nil || (*profile.Profile)(nil).Module("m") != nil {
		t.Fatal("Module must be nil-safe")
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	c := module("m")
	task := &rtos.Task{M: c}
	// mk captures fired reactions, then unfired ones.
	mk := func(fired, unfired int) *profile.Profile {
		col := profile.NewCollector()
		for i := 0; i < fired+unfired; i++ {
			present := i < fired
			col.TaskBegan(task, snap(c, present, 1, 1), 0)
			col.TaskFinished(task, cfsm.Reaction{Fired: present}, 5, 0)
		}
		return col.Profile()
	}
	p := mk(3, 2)
	mp := p.Module("m")
	if mp == nil || mp.Reactions != 5 || mp.Fired != 3 {
		t.Fatalf("capture: %+v", mp)
	}

	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := profile.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	bp := back.Module("m")
	if bp == nil || bp.Reactions != 5 || len(bp.Outcomes) != len(mp.Outcomes) {
		t.Fatalf("roundtrip: %+v", bp)
	}
	if bp.Fingerprint() != mp.Fingerprint() {
		t.Fatal("fingerprint must survive the JSON roundtrip")
	}
	// Evidence change must change the fingerprint.
	if mk(4, 2).Module("m").Fingerprint() == bp.Fingerprint() {
		t.Fatal("fingerprint must track outcome counts")
	}
}
