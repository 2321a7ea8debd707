package sim_test

import (
	"fmt"
	"strconv"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/expr"
	"polis/internal/profile"
	"polis/internal/rtos"
	"polis/internal/sim"
)

// TestMergeTracesManyIslands pins the k-way trace merge on a wide
// network: 66 disconnected islands whose stimuli all collide on the
// same cycles. The merged trace must be identical for any worker
// count, and same-time events must keep the island-index tie-break
// (island i's events before island j's for i < j).
func TestMergeTracesManyIslands(t *testing.T) {
	const islands = 66
	n := cfsm.NewNetwork("many")
	ins := make([]*cfsm.Signal, 0, islands)
	for k := 0; k < islands; k++ {
		in, _ := relayPair(n, fmt.Sprintf("i%03d", k))
		ins = append(ins, in)
	}
	var stim []sim.Stimulus
	for j := int64(0); j < 8; j++ {
		for k, in := range ins {
			stim = append(stim, sim.Stimulus{Time: 1000 + j*9000, Signal: in, Value: int64(k)})
		}
	}
	opt := sim.Options{Cfg: rtos.DefaultConfig(), Partition: true, Workers: 1}
	serial, err := sim.Run(n, stim, 90_000, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Workers = 16
	par, err := sim.Run(n, stim, 90_000, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Systems) != islands || len(par.Systems) != islands {
		t.Fatalf("islands = %d/%d, want %d", len(serial.Systems), len(par.Systems), islands)
	}
	sameResult(t, "66-island", serial, par)
	// Tie-break: all signal names are "iNNN_*", so the island index is
	// recoverable per event. At equal timestamps it must never step
	// backwards.
	islandOf := func(e rtos.TraceEvent) int {
		idx, err := strconv.Atoi(e.Signal.Name[1:4])
		if err != nil {
			t.Fatalf("unexpected signal name %q", e.Signal.Name)
		}
		return idx
	}
	for i := 1; i < len(serial.Trace); i++ {
		prev, cur := serial.Trace[i-1], serial.Trace[i]
		if cur.Time < prev.Time {
			t.Fatalf("trace[%d] time %d before trace[%d] time %d", i, cur.Time, i-1, prev.Time)
		}
		if cur.Time == prev.Time && islandOf(cur) < islandOf(prev) {
			t.Fatalf("trace[%d]: island %d precedes island %d at time %d",
				i, islandOf(prev), islandOf(cur), cur.Time)
		}
	}
}

// TestPartitionEnvOnlyStimulus: stimuli on a signal no machine reads
// or writes must behave identically partitioned and unpartitioned —
// the partition runner routes them to island 0, which records the
// environment event and drops it exactly like the single-system run.
func TestPartitionEnvOnlyStimulus(t *testing.T) {
	n := cfsm.NewNetwork("envonly")
	in1, out1 := relayPair(n, "p")
	in2, out2 := relayPair(n, "q")
	orphan := n.NewSignal("orphan", false)
	stim := []sim.Stimulus{
		{Time: 100, Signal: in1},
		{Time: 250, Signal: orphan, Value: 5},
		{Time: 400, Signal: in2},
		{Time: 777, Signal: orphan, Value: 9},
	}
	serial, err := sim.Run(n, stim, 50_000,
		sim.Options{Cfg: rtos.DefaultConfig()})
	if err != nil {
		t.Fatal(err)
	}
	part, err := sim.Run(n, stim, 50_000,
		sim.Options{Cfg: rtos.DefaultConfig(), Partition: true, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Trace) != len(part.Trace) {
		t.Fatalf("trace length %d unpartitioned vs %d partitioned",
			len(serial.Trace), len(part.Trace))
	}
	for i := range serial.Trace {
		a, b := serial.Trace[i], part.Trace[i]
		if a.Time != b.Time || a.Signal != b.Signal || a.Value != b.Value || a.From != b.From {
			t.Fatalf("trace[%d] = {%d %s %d %s} unpartitioned vs {%d %s %d %s} partitioned",
				i, a.Time, a.Signal.Name, a.Value, a.From, b.Time, b.Signal.Name, b.Value, b.From)
		}
	}
	orphanSeen := 0
	for _, e := range part.Trace {
		if e.Signal == orphan {
			if e.From != "env" {
				t.Fatalf("orphan event from %q, want env", e.From)
			}
			orphanSeen++
		}
	}
	if orphanSeen != 2 {
		t.Fatalf("orphan env events in trace = %d, want 2", orphanSeen)
	}
	if sim.CountEmissions(part.Trace, out1) != 1 || sim.CountEmissions(part.Trace, out2) != 1 {
		t.Fatal("relay outputs missing from the partitioned run")
	}
}

// hotColdNet builds env sample -> scaler (doubles) -> limiter (clamps
// to 10) with a predicate whose outcome the stimulus values bias.
func hotColdNet() (*cfsm.Network, *cfsm.Signal, *cfsm.Signal) {
	n := cfsm.NewNetwork("hotcold")
	sample := n.NewSignal("sample", false)
	mid := n.NewSignal("mid", false)
	out := n.NewSignal("out", false)

	sc := cfsm.New("scaler")
	sc.AttachInput(sample)
	sc.AttachOutput(mid)
	ps := sc.Present(sample)
	sc.AddTransition([]cfsm.Cond{cfsm.On(ps, 1)},
		sc.EmitV(mid, expr.Mul(expr.V("?sample"), expr.C(2))))

	lim := cfsm.New("limiter")
	lim.AttachInput(mid)
	lim.AttachOutput(out)
	pm := lim.Present(mid)
	hi := lim.Pred(expr.Gt(expr.V("?mid"), expr.C(10)))
	lim.AddTransition([]cfsm.Cond{cfsm.On(pm, 1), cfsm.On(hi, 1)},
		lim.EmitV(out, expr.C(10)))
	lim.AddTransition([]cfsm.Cond{cfsm.On(pm, 1), cfsm.On(hi, 0)},
		lim.EmitV(out, expr.V("?mid")))

	if err := n.Add(sc); err != nil {
		panic(err)
	}
	if err := n.Add(lim); err != nil {
		panic(err)
	}
	return n, sample, out
}

// TestSpecializeCaptureDifferential drives the full capture -> apply
// loop: a probed behavioral run collects the profile, then a VMExact
// run with specialization (and every per-reaction differential check
// on) must produce the same per-signal output values as the
// unspecialized run — specialization changes layout and cycle counts,
// never observable behavior.
func TestSpecializeCaptureDifferential(t *testing.T) {
	n, sample, out := hotColdNet()
	// Hot-biased workload: most samples double past the clamp.
	stim := sim.PeriodicStimuli(sample, 1000, 5000, 300_000, func(i int) int64 {
		if i%7 == 0 {
			return 2 // cold path: below the clamp
		}
		return int64(20 + i%5)
	})

	col := profile.NewCollector()
	_, err := sim.Run(n, stim, 300_000,
		sim.Options{Cfg: rtos.DefaultConfig(), Probe: col})
	if err != nil {
		t.Fatal(err)
	}
	prof := col.Profile()
	if mp := prof.Module("limiter"); mp == nil || mp.Reactions == 0 {
		t.Fatalf("profile captured no limiter evidence: %+v", mp)
	}

	values := func(res *sim.Result) []int64 {
		var vals []int64
		for _, e := range res.Trace {
			if e.Signal == out && e.From != "env" {
				vals = append(vals, e.Value)
			}
		}
		return vals
	}
	plain, err := sim.Run(n, stim, 300_000,
		sim.Options{Cfg: rtos.DefaultConfig(), Mode: sim.VMExact})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := sim.Run(n, stim, 300_000,
		sim.Options{
			Cfg: rtos.DefaultConfig(), Mode: sim.VMExact, Specialize: prof,
			Check: sim.CheckOptions{VMAgainstReference: true, CycleBounds: true},
		})
	if err != nil {
		t.Fatal(err)
	}
	pv, sv := values(plain), values(spec)
	if len(pv) != len(sv) {
		t.Fatalf("output count %d unspecialized vs %d specialized", len(pv), len(sv))
	}
	for i := range pv {
		if pv[i] != sv[i] {
			t.Fatalf("output %d: unspecialized %d, specialized %d", i, pv[i], sv[i])
		}
	}
}
