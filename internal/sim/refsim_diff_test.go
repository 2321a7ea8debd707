package sim_test

import (
	"fmt"
	"testing"

	"polis/internal/netfuzz"
	"polis/internal/sim"
	"polis/internal/sim/internal/refsim"
)

// These tests pin the throughput-oriented engine (dense buffers,
// batched emission queue) to the frozen pre-change engine in
// internal/refsim: for randomized networks, RTOS configurations and
// stimulus timelines (netfuzz.GenScenario) — including same-cycle
// bursts that stress the batch queue — the two must produce identical
// traces, cycle counts, accounting and final states, event for event.

// compareRuns requires bit-identical observable outcomes from the two
// engines.
func compareRuns(t *testing.T, label string, got *sim.Result, want *refsim.Result) {
	t.Helper()
	if got.Cycles != want.Cycles {
		t.Errorf("%s: cycles %d, reference %d", label, got.Cycles, want.Cycles)
	}
	if got.CodeBytes != want.CodeBytes || got.DataBytes != want.DataBytes {
		t.Errorf("%s: footprint %d/%d, reference %d/%d",
			label, got.CodeBytes, got.DataBytes, want.CodeBytes, want.DataBytes)
	}
	if len(got.Trace) != len(want.Trace) {
		t.Errorf("%s: %d trace events, reference %d", label, len(got.Trace), len(want.Trace))
	} else {
		for i := range got.Trace {
			a, b := got.Trace[i], want.Trace[i]
			if a.Time != b.Time || a.Signal != b.Signal || a.Value != b.Value || a.From != b.From {
				t.Errorf("%s: trace[%d] = {%d %s %d %s}, reference {%d %s %d %s}",
					label, i, a.Time, a.Signal.Name, a.Value, a.From,
					b.Time, b.Signal.Name, b.Value, b.From)
				break
			}
		}
	}
	gs, ws := got.System, want.System
	if gs.ScheduleCalls != ws.ScheduleCalls || gs.Interrupts != ws.Interrupts ||
		gs.Polls != ws.Polls || gs.BusyCycles != ws.BusyCycles || gs.PollDropped != ws.PollDropped {
		t.Errorf("%s: stats sched/irq/polls/busy/dropped %d/%d/%d/%d/%d, reference %d/%d/%d/%d/%d",
			label, gs.ScheduleCalls, gs.Interrupts, gs.Polls, gs.BusyCycles, gs.PollDropped,
			ws.ScheduleCalls, ws.Interrupts, ws.Polls, ws.BusyCycles, ws.PollDropped)
	}
	if len(gs.Tasks) != len(ws.Tasks) {
		t.Fatalf("%s: %d tasks, reference %d", label, len(gs.Tasks), len(ws.Tasks))
	}
	for i := range gs.Tasks {
		ta, tb := gs.Tasks[i], ws.Tasks[i]
		if ta.M != tb.M {
			t.Fatalf("%s: task %d is %s, reference %s", label, i, ta.M.Name, tb.M.Name)
		}
		if ta.Executions != tb.Executions || ta.Fired != tb.Fired || ta.Lost != tb.Lost {
			t.Errorf("%s: task %s exec/fired/lost %d/%d/%d, reference %d/%d/%d",
				label, ta.M.Name, ta.Executions, ta.Fired, ta.Lost,
				tb.Executions, tb.Fired, tb.Lost)
		}
		for _, sv := range ta.M.States {
			if ta.State(sv) != tb.State(sv) {
				t.Errorf("%s: task %s state %s=%d, reference %d",
					label, ta.M.Name, sv.Name, ta.State(sv), tb.State(sv))
			}
		}
	}
}

func runDiff(t *testing.T, seed int64, mode sim.Mode, check bool) {
	t.Helper()
	sc, err := netfuzz.GenScenario(seed)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	opt := sim.Options{Cfg: sc.Cfg, Mode: mode}
	if check {
		opt.Check = sim.CheckOptions{VMAgainstReference: true, CycleBounds: true}
	}
	label := fmt.Sprintf("seed %d mode %d", seed, mode)
	// The reference engine sorts the stimulus slice in place; give it a
	// copy.
	got, gerr := sim.Run(sc.Net, sc.Stimuli, sc.Horizon, opt)
	want, werr := refsim.Run(sc.Net, append([]sim.Stimulus(nil), sc.Stimuli...), sc.Horizon, opt)
	if (gerr == nil) != (werr == nil) {
		t.Fatalf("%s: engine error %v, reference error %v", label, gerr, werr)
	}
	if gerr != nil {
		if gerr.Error() != werr.Error() {
			t.Fatalf("%s: engine error %q, reference error %q", label, gerr, werr)
		}
		return
	}
	compareRuns(t, label, got, want)
}

func TestEngineMatchesReferenceBehavioral(t *testing.T) {
	for seed := int64(1); seed <= 120; seed++ {
		runDiff(t, seed, sim.Behavioral, false)
	}
}

func TestEngineMatchesReferenceVM(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		runDiff(t, seed, sim.VMExact, false)
	}
}

// TestEngineMatchesReferenceVMChecked runs the VM differential with the
// per-reaction cross-checks enabled, so the dense engine's snapshot
// materialisation path is exercised too.
func TestEngineMatchesReferenceVMChecked(t *testing.T) {
	for seed := int64(200); seed <= 215; seed++ {
		runDiff(t, seed, sim.VMExact, true)
	}
}
