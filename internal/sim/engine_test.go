package sim_test

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"polis/internal/cfsm"
	"polis/internal/designs"
	"polis/internal/netfuzz"
	"polis/internal/rtos"
	"polis/internal/sim"
	"polis/internal/vm"
)

// relayPair adds an env->A->B->out relay chain to a network with the
// given name prefix and returns the input and output signals.
func relayPair(n *cfsm.Network, prefix string) (*cfsm.Signal, *cfsm.Signal) {
	in := n.NewSignal(prefix+"_in", true)
	mid := n.NewSignal(prefix+"_mid", true)
	out := n.NewSignal(prefix+"_out", true)
	a := cfsm.New(prefix + "A")
	a.AttachInput(in)
	a.AttachOutput(mid)
	a.AddTransition([]cfsm.Cond{cfsm.On(a.Present(in), 1)}, a.Emit(mid))
	b := cfsm.New(prefix + "B")
	b.AttachInput(mid)
	b.AttachOutput(out)
	b.AddTransition([]cfsm.Cond{cfsm.On(b.Present(mid), 1)}, b.Emit(out))
	if err := n.Add(a); err != nil {
		panic(err)
	}
	if err := n.Add(b); err != nil {
		panic(err)
	}
	return in, out
}

// steadyStateAllocs drives a warmed-up system through repeated
// stimulus/advance rounds and returns the allocations per round.
func steadyStateAllocs(t *testing.T, sys *rtos.System, in *cfsm.Signal) float64 {
	t.Helper()
	var tnow int64
	round := func() {
		if err := sys.EmitEnv(in, 1); err != nil {
			t.Fatal(err)
		}
		tnow += 5000
		if err := sys.Advance(tnow); err != nil {
			t.Fatal(err)
		}
		sys.Trace = sys.Trace[:0]
	}
	for i := 0; i < 50; i++ { // warm trace, stack and queue capacity
		round()
	}
	return testing.AllocsPerRun(200, round)
}

// TestReactionZeroAllocBehavioral pins the hot loop: once buffers are
// warm, a full stimulus->ISR->schedule->react->emit->react round must
// not allocate at all in behavioral mode.
func TestReactionZeroAllocBehavioral(t *testing.T) {
	n := cfsm.NewNetwork("zeroalloc")
	in, _ := relayPair(n, "z")
	sys, err := rtos.NewSystem(n, rtos.DefaultConfig(), func(m *cfsm.CFSM) (*rtos.Task, error) {
		return rtos.NewBehavioralTask(m, func() int64 { return 100 }), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := steadyStateAllocs(t, sys, in); allocs != 0 {
		t.Fatalf("behavioral steady-state round allocates %.1f times, want 0", allocs)
	}
}

// TestReactionZeroAllocVM pins the same property with every reaction
// executed on the virtual CPU.
func TestReactionZeroAllocVM(t *testing.T) {
	n := cfsm.NewNetwork("zeroallocvm")
	in, _ := relayPair(n, "z")
	opt := sim.Options{Profile: vm.HC11()}
	sys, err := rtos.NewSystem(n, rtos.DefaultConfig(), func(m *cfsm.CFSM) (*rtos.Task, error) {
		task, _, _, err := sim.BuildVMTask(m, opt)
		return task, err
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs := steadyStateAllocs(t, sys, in); allocs != 0 {
		t.Fatalf("VM steady-state round allocates %.1f times, want 0", allocs)
	}
}

// TestRunContextPreCancelled verifies an already-cancelled context
// stops the run before any work.
func TestRunContextPreCancelled(t *testing.T) {
	n := cfsm.NewNetwork("cancelled")
	in, _ := relayPair(n, "c")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stim := []sim.Stimulus{{Time: 10, Signal: in}}
	_, err := sim.RunContext(ctx, n, stim, 100000, sim.Options{Cfg: rtos.DefaultConfig()})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestRunContextCancelledDuringTaskBuild runs the dashboard with no
// stimuli under an already-cancelled context, so task build is the
// only work before the empty event loop: every mode, serial and
// partitioned, must stop there with the context's error.
func TestRunContextCancelledDuringTaskBuild(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, mode := range []sim.Mode{sim.Behavioral, sim.VMExact} {
		for _, partition := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/partition=%v", mode.Name(), partition), func(t *testing.T) {
				opt := sim.Options{Cfg: rtos.DefaultConfig(), Mode: mode, Partition: partition}
				_, err := sim.RunContext(ctx, designs.NewDashboard().Net, nil, 1000, opt)
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("err = %v, want context.Canceled", err)
				}
			})
		}
	}
}

// TestRunContextMidRunCancellation cancels while the RTOS event loop is
// grinding through an astronomically long polled timeline; without the
// in-loop context check the run would take hours.
func TestRunContextMidRunCancellation(t *testing.T) {
	n := cfsm.NewNetwork("midcancel")
	in, _ := relayPair(n, "c")
	cfg := rtos.DefaultConfig()
	cfg.Deliver[in] = rtos.Polling
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := sim.RunContext(ctx, n, nil, 1<<50, sim.Options{Cfg: cfg})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// twoIslandNet builds a network of two disconnected relay chains.
func twoIslandNet() (*cfsm.Network, *cfsm.Signal, *cfsm.Signal, *cfsm.Signal, *cfsm.Signal) {
	n := cfsm.NewNetwork("islands")
	in1, out1 := relayPair(n, "p")
	in2, out2 := relayPair(n, "q")
	return n, in1, out1, in2, out2
}

func sameResult(t *testing.T, label string, a, b *sim.Result) {
	t.Helper()
	if len(a.Trace) != len(b.Trace) {
		t.Fatalf("%s: %d trace events vs %d", label, len(a.Trace), len(b.Trace))
	}
	for i := range a.Trace {
		x, y := a.Trace[i], b.Trace[i]
		if x.Time != y.Time || x.Signal != y.Signal || x.Value != y.Value || x.From != y.From {
			t.Fatalf("%s: trace[%d] = {%d %s %d %s} vs {%d %s %d %s}",
				label, i, x.Time, x.Signal.Name, x.Value, x.From,
				y.Time, y.Signal.Name, y.Value, y.From)
		}
	}
	if a.Cycles != b.Cycles || a.CodeBytes != b.CodeBytes || a.DataBytes != b.DataBytes {
		t.Fatalf("%s: cycles/code/data %d/%d/%d vs %d/%d/%d",
			label, a.Cycles, a.CodeBytes, a.DataBytes, b.Cycles, b.CodeBytes, b.DataBytes)
	}
}

// TestPartitionsDecomposition checks island discovery on a network with
// two disconnected components, and that chains glue islands together.
func TestPartitionsDecomposition(t *testing.T) {
	n, _, _, _, _ := twoIslandNet()
	cfg := rtos.DefaultConfig()
	parts := sim.Partitions(n, cfg)
	if len(parts) != 2 {
		t.Fatalf("got %d islands, want 2", len(parts))
	}
	if len(parts[0]) != 2 || len(parts[1]) != 2 {
		t.Fatalf("island sizes %d/%d, want 2/2", len(parts[0]), len(parts[1]))
	}
	// A chain across the components must merge them into one island.
	cfg.Chains = [][]*cfsm.CFSM{{parts[0][0], parts[1][0]}}
	if merged := sim.Partitions(n, cfg); len(merged) != 1 {
		t.Fatalf("chained network has %d islands, want 1", len(merged))
	}
}

// TestPartitionParallelMatchesSerial runs the partitioned simulator
// with one worker and with many and requires identical merged results —
// the determinism contract of the parallel runner.
func TestPartitionParallelMatchesSerial(t *testing.T) {
	n, in1, _, in2, _ := twoIslandNet()
	var stim []sim.Stimulus
	for i := int64(0); i < 40; i++ {
		stim = append(stim, sim.Stimulus{Time: 100 + i*977, Signal: in1})
		stim = append(stim, sim.Stimulus{Time: 100 + i*977, Signal: in2, Value: i})
	}
	for _, mode := range []sim.Mode{sim.Behavioral, sim.VMExact} {
		opt := sim.Options{Cfg: rtos.DefaultConfig(), Mode: mode, Partition: true, Workers: 1}
		serial, err := sim.Run(n, stim, 100_000, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Workers = 8
		par, err := sim.Run(n, stim, 100_000, opt)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("mode %d", mode)
		sameResult(t, label, serial, par)
		if serial.System != nil || par.System != nil {
			t.Fatalf("%s: partitioned result has a single System", label)
		}
		if len(serial.Systems) != 2 || len(par.Systems) != 2 {
			t.Fatalf("%s: Systems = %d/%d islands, want 2/2",
				label, len(serial.Systems), len(par.Systems))
		}
	}
}

// TestPartitionMatchesPerIslandRuns checks the merged partitioned
// result against independent single-system runs of each island.
func TestPartitionMatchesPerIslandRuns(t *testing.T) {
	n, in1, out1, in2, out2 := twoIslandNet()
	stim := []sim.Stimulus{
		{Time: 100, Signal: in1},
		{Time: 100, Signal: in2, Value: 7},
		{Time: 5000, Signal: in2, Value: 9},
	}
	opt := sim.Options{Cfg: rtos.DefaultConfig(), Partition: true, Workers: 4}
	res, err := sim.Run(n, stim, 50_000, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.CountEmissions(res.Trace, out1); got != 1 {
		t.Fatalf("out1 emitted %d times, want 1", got)
	}
	if got := sim.CountEmissions(res.Trace, out2); got != 2 {
		t.Fatalf("out2 emitted %d times, want 2", got)
	}
	// Each island alone must reproduce its slice of the merged run.
	parts := sim.Partitions(n, opt.Cfg)
	for i, ms := range parts {
		sub := n.Subnet(fmt.Sprintf("island%d", i), ms)
		var mine []sim.Stimulus
		for _, st := range stim {
			for _, s := range sub.Signals {
				if s == st.Signal {
					mine = append(mine, st)
					break
				}
			}
		}
		alone, err := sim.Run(sub, mine, 50_000, sim.Options{Cfg: opt.Cfg})
		if err != nil {
			t.Fatal(err)
		}
		sys := res.Systems[i]
		if alone.System.BusyCycles != sys.BusyCycles ||
			alone.System.ScheduleCalls != sys.ScheduleCalls ||
			alone.System.Interrupts != sys.Interrupts {
			t.Fatalf("island %d: busy/sched/irq %d/%d/%d standalone, %d/%d/%d partitioned",
				i, alone.System.BusyCycles, alone.System.ScheduleCalls, alone.System.Interrupts,
				sys.BusyCycles, sys.ScheduleCalls, sys.Interrupts)
		}
	}
}

// TestPartitionRandomizedIdentity drives the partition runner over the
// randomized differential scenarios: serial and parallel execution must
// agree event-for-event, whatever the island structure.
func TestPartitionRandomizedIdentity(t *testing.T) {
	for seed := int64(300); seed < 330; seed++ {
		sc, err := netfuzz.GenScenario(seed)
		if err != nil {
			t.Fatal(err)
		}
		opt := sim.Options{Cfg: sc.Cfg, Partition: true, Workers: 1}
		serial, serr := sim.Run(sc.Net, sc.Stimuli, sc.Horizon, opt)
		opt.Workers = 8
		par, perr := sim.Run(sc.Net, sc.Stimuli, sc.Horizon, opt)
		if (serr == nil) != (perr == nil) {
			t.Fatalf("seed %d: serial err %v, parallel err %v", seed, serr, perr)
		}
		if serr != nil {
			continue
		}
		sameResult(t, fmt.Sprintf("seed %d", seed), serial, par)
		for i := range serial.Systems {
			a, b := serial.Systems[i], par.Systems[i]
			if a.BusyCycles != b.BusyCycles || a.PollDropped != b.PollDropped ||
				a.ScheduleCalls != b.ScheduleCalls {
				t.Fatalf("seed %d island %d: stats diverge", seed, i)
			}
		}
	}
}

// countingProbe tallies probe callbacks; it also remembers the last
// snapshot and reaction it saw so their materialisation is exercised.
type countingProbe struct {
	posted, began, finished int
	firedSeen               int64
}

func (p *countingProbe) TaskPosted(t *rtos.Task, sig *cfsm.Signal, val int64, now int64, env bool) {
	p.posted++
}
func (p *countingProbe) TaskBegan(t *rtos.Task, snap cfsm.Snapshot, now int64) { p.began++ }
func (p *countingProbe) TaskFinished(t *rtos.Task, r cfsm.Reaction, cycles int64, now int64) {
	p.finished++
	if r.Fired {
		p.firedSeen++
	}
}

// TestProbeAccountingMatchesStats checks the probe view of the batched
// engine against the task counters, and that observing a run does not
// change its outcome.
func TestProbeAccountingMatchesStats(t *testing.T) {
	sc, err := netfuzz.GenScenario(7)
	if err != nil {
		t.Fatal(err)
	}
	bare, err := sim.Run(sc.Net, sc.Stimuli, sc.Horizon, sim.Options{Cfg: sc.Cfg})
	if err != nil {
		t.Fatal(err)
	}
	probe := &countingProbe{}
	probed, err := sim.Run(sc.Net, sc.Stimuli, sc.Horizon,
		sim.Options{Cfg: sc.Cfg, Probe: probe})
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "probe-vs-bare", bare, probed)
	var execs, fired int64
	for _, task := range probed.System.Tasks {
		execs += task.Executions
		fired += task.Fired
	}
	if int64(probe.began) != execs || int64(probe.finished) != execs {
		t.Fatalf("probe began/finished %d/%d, task executions %d", probe.began, probe.finished, execs)
	}
	if probe.firedSeen != fired {
		t.Fatalf("probe saw %d fired reactions, tasks counted %d", probe.firedSeen, fired)
	}
	if probe.posted == 0 {
		t.Fatal("probe saw no deliveries")
	}
}
