package rtos

import (
	"testing"

	"polis/internal/cfsm"
	"polis/internal/expr"
)

// pollFanNet builds one valued environment signal read by two software
// machines, each latching the received value into a state variable.
func pollFanNet() (*cfsm.Network, *cfsm.Signal, *cfsm.StateVar, *cfsm.StateVar) {
	n := cfsm.NewNetwork("pollfan")
	in := n.NewSignal("in", false)
	mk := func(name string) (*cfsm.CFSM, *cfsm.StateVar) {
		m := cfsm.New(name)
		m.AttachInput(in)
		sv := m.AddState("seen_"+name, 256, 0)
		m.AddTransition([]cfsm.Cond{cfsm.On(m.Present(in), 1)},
			m.Assign(sv, expr.V("?in")))
		if err := n.Add(m); err != nil {
			panic(err)
		}
		return m, sv
	}
	_, sv1 := mk("R1")
	_, sv2 := mk("R2")
	return n, in, sv1, sv2
}

// TestPollPortOverwriteAccounting pins the one-place poll port
// semantics under batched delivery: the port latch runs once per
// software reader, so an emission to a k-reader polled signal latches k
// times, and every latch onto an occupied port counts one PollDropped.
// Two back-to-back emissions within one poll period must count
// 1 (second latch of the first emission) + 2 (both latches of the
// second) = 3 drops, and both readers must see only the latest value.
func TestPollPortOverwriteAccounting(t *testing.T) {
	n, in, sv1, sv2 := pollFanNet()
	cfg := DefaultConfig()
	cfg.Deliver[in] = Polling
	sys, err := NewSystem(n, cfg, mkBehavioral(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Advance(1); err != nil {
		t.Fatal(err)
	}
	if err := sys.EmitEnv(in, 5); err != nil {
		t.Fatal(err)
	}
	if err := sys.Advance(2); err != nil {
		t.Fatal(err)
	}
	if err := sys.EmitEnv(in, 6); err != nil {
		t.Fatal(err)
	}
	if err := sys.Advance(5000); err != nil {
		t.Fatal(err)
	}
	if sys.PollDropped != 3 {
		t.Errorf("PollDropped = %d, want 3", sys.PollDropped)
	}
	// The poll routine delivered once per reader, after the overwrite.
	polls := 0
	for _, e := range sys.Trace {
		if e.From == "poll" {
			polls++
			if e.Value != 6 {
				t.Errorf("poll delivery carried value %d, want 6 (latest)", e.Value)
			}
		}
	}
	if polls != 2 {
		t.Errorf("%d poll deliveries, want 2 (one per reader)", polls)
	}
	for i, task := range sys.Tasks {
		if task.Executions != 1 || task.Fired != 1 || task.Lost != 0 {
			t.Errorf("task %d exec/fired/lost = %d/%d/%d, want 1/1/0",
				i, task.Executions, task.Fired, task.Lost)
		}
	}
	if got := sys.Tasks[0].State(sv1); got != 6 {
		t.Errorf("R1 latched %d, want 6", got)
	}
	if got := sys.Tasks[1].State(sv2); got != 6 {
		t.Errorf("R2 latched %d, want 6", got)
	}
}

// TestPollTicksWithoutReaders pins a preserved quirk: marking any
// signal for polling turns the poll routine on, and its ticks cost
// PollOverhead busy cycles even when no port is ever latched.
func TestPollTicksWithoutReaders(t *testing.T) {
	n := cfsm.NewNetwork("pollidle")
	orphan := n.NewSignal("orphan", true)
	in, _ := func() (*cfsm.Signal, *cfsm.Signal) {
		in := n.NewSignal("in", true)
		out := n.NewSignal("out", true)
		m := cfsm.New("M")
		m.AttachInput(in)
		m.AttachOutput(out)
		m.AddTransition([]cfsm.Cond{cfsm.On(m.Present(in), 1)}, m.Emit(out))
		if err := n.Add(m); err != nil {
			panic(err)
		}
		return in, out
	}()
	_ = in
	cfg := DefaultConfig()
	cfg.Deliver[orphan] = Polling // no machine reads it
	sys, err := NewSystem(n, cfg, mkBehavioral(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Advance(10 * PollPeriod); err != nil {
		t.Fatal(err)
	}
	if sys.Polls != 10 {
		t.Errorf("Polls = %d, want 10", sys.Polls)
	}
	if want := int64(10 * PollOverhead); sys.BusyCycles != want {
		t.Errorf("BusyCycles = %d, want %d", sys.BusyCycles, want)
	}
}
