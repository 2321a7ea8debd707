package sim_test

import (
	"math/rand"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/randcfsm"
	"polis/internal/rtos"
	"polis/internal/sim"
)

// drive runs sim.Run's stimulus loop on sys up to horizon. With
// project set it reserves the trace by the rule sim.Run applies;
// otherwise the trace keeps whatever capacity sys already has.
func drive(tb testing.TB, sys *rtos.System, stimuli []sim.Stimulus, horizon int64, project bool) {
	tb.Helper()
	prefix := sim.TracePrefix(len(stimuli))
	if project {
		sys.ReserveTrace(min(prefix, len(stimuli)))
	}
	for i, st := range stimuli {
		if err := sys.Advance(st.Time); err != nil {
			tb.Fatal(err)
		}
		if project && i == prefix {
			sys.ReserveTrace(sim.TraceReserve(len(sys.Trace), prefix, len(stimuli)))
		}
		if err := sys.EmitEnv(st.Signal, st.Value); err != nil {
			tb.Fatal(err)
		}
	}
	if err := sys.Advance(horizon); err != nil {
		tb.Fatal(err)
	}
}

// TestTraceReservedFromEventRate runs the shape of perfbench's sim-vm
// case at a smaller size: a VMExact chain whose trace outgrows one
// event per stimulus. The projection from the first stimuli must size
// the trace within 10% of its final length; one slot per stimulus
// plus a doubling would leave it a third to a half empty.
func TestTraceReservedFromEventRate(t *testing.T) {
	const machines, stimuli = 20, 40_000
	cfg := randcfsm.DefaultConfig()
	net, _, err := randcfsm.NewTopologyNetwork(rand.New(rand.NewSource(1)), machines, cfg, randcfsm.TopoChain)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(2))
	prim := net.PrimaryInputs()
	var stim []sim.Stimulus
	tnow := int64(100)
	for i := 0; i < stimuli; i++ {
		s := prim[i%len(prim)]
		var v int64
		if !s.Pure {
			v = r.Int63n(cfg.ValueRange)
		}
		stim = append(stim, sim.Stimulus{Time: tnow, Signal: s, Value: v})
		tnow += 200
		if i%len(prim) == len(prim)-1 {
			tnow += 5000
		}
	}
	res, err := sim.Run(net, stim, tnow+50_000, sim.Options{Cfg: rtos.DefaultConfig(), Mode: sim.VMExact})
	if err != nil {
		t.Fatal(err)
	}
	n, c := len(res.Trace), cap(res.Trace)
	if n <= stimuli*11/10 {
		t.Fatalf("%d events for %d stimuli: the chain must record well over one event per stimulus", n, stimuli)
	}
	if 10*c > 11*n {
		t.Fatalf("trace capacity %d for %d events (%.3fx), want at most 1.1x", c, n, float64(c)/float64(n))
	}
}

// TestTraceProjectionShortfallDoubles raises the event rate after the
// reservation prefix: the first stimuli go to a signal nothing reads
// (one event each), the rest to a relay chain (three events each), so
// the projection falls short and the trace must fall back to doubling.
// Every event must survive, in order, against a run whose trace was
// reserved with ample capacity up front.
func TestTraceProjectionShortfallDoubles(t *testing.T) {
	const stimuli = 6400
	net := cfsm.NewNetwork("shortfall")
	idle := net.NewSignal("idle", true)
	in, _ := relayPair(net, "r")
	var stim []sim.Stimulus
	for i := 0; i < stimuli; i++ {
		sig := in
		if i <= sim.TracePrefix(stimuli) {
			sig = idle
		}
		stim = append(stim, sim.Stimulus{Time: int64(100 + 5000*i), Signal: sig})
	}
	horizon := int64(100 + 5000*stimuli + 50_000)
	opt := sim.Options{Cfg: rtos.DefaultConfig()}
	res, err := sim.Run(net, stim, horizon, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) <= stimuli+stimuli/16 {
		t.Fatalf("%d events for %d stimuli: the projection (one event per stimulus) must fall short", len(res.Trace), stimuli)
	}

	costs, err := sim.BehavioralCosts(net, opt)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := rtos.NewSystem(net, opt.Cfg, func(m *cfsm.CFSM) (*rtos.Task, error) {
		c := costs[m]
		return rtos.NewBehavioralTask(m, func() int64 { return c }), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	ample := 4 * stimuli
	sys.ReserveTrace(ample)
	drive(t, sys, stim, horizon, false)
	if cap(sys.Trace) != ample {
		t.Fatalf("reference trace grew to %d; ample reservation was %d", cap(sys.Trace), ample)
	}
	if len(res.Trace) != len(sys.Trace) {
		t.Fatalf("%d events, want %d", len(res.Trace), len(sys.Trace))
	}
	for i, w := range sys.Trace {
		if g := res.Trace[i]; g != w {
			t.Fatalf("event %d = %+v, want %+v", i, g, w)
		}
	}
}
