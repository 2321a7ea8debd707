package rtos_test

import (
	"fmt"
	"sort"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/estimate"
	"polis/internal/netfuzz"
	"polis/internal/rtos"
	"polis/internal/sgraph"
	"polis/internal/sim"
	"polis/internal/vm"
)

// fanNet builds n independent relay machines m000.. in network order;
// machine i reacts to its own input ins[i] by emitting its own output.
func fanNet(n int) (*cfsm.Network, []*cfsm.Signal) {
	net := cfsm.NewNetwork("fan")
	ins := make([]*cfsm.Signal, n)
	for i := range ins {
		ins[i] = net.NewSignal(fmt.Sprintf("in%03d", i), true)
		out := net.NewSignal(fmt.Sprintf("out%03d", i), true)
		m := cfsm.New(fmt.Sprintf("m%03d", i))
		m.AttachInput(ins[i])
		m.AttachOutput(out)
		m.AddTransition([]cfsm.Cond{cfsm.On(m.Present(ins[i]), 1)}, m.Emit(out))
		if err := net.Add(m); err != nil {
			panic(err)
		}
	}
	return net, ins
}

// fanSystem runs fanNet(n) under cfg with a fixed reaction cost and,
// when prio is not nil, static priority prio(i) for machine i.
func fanSystem(t *testing.T, n int, cfg rtos.Config, prio func(i int) int) (*rtos.System, []*cfsm.Signal) {
	t.Helper()
	net, ins := fanNet(n)
	if prio != nil {
		cfg.Policy = rtos.StaticPriority
		for i, m := range net.Machines {
			cfg.Priority[m] = prio(i)
		}
	}
	sys, err := rtos.NewSystem(net, cfg, func(m *cfsm.CFSM) (*rtos.Task, error) {
		return rtos.NewBehavioralTask(m, func() int64 { return 10 }), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mustReady(t, sys)
	return sys, ins
}

func mustReady(t *testing.T, sys *rtos.System) {
	t.Helper()
	if err := rtos.CheckReadySet(sys); err != nil {
		t.Fatal(err)
	}
}

// dispatch enables the given machines of a fan system at the current
// time, runs it until idle and returns the order the machines ran in.
func dispatch(t *testing.T, sys *rtos.System, ins []*cfsm.Signal, enable ...int) []int {
	t.Helper()
	start := len(sys.Trace)
	for _, i := range enable {
		if err := sys.EmitEnv(ins[i], 0); err != nil {
			t.Fatal(err)
		}
		mustReady(t, sys)
	}
	if err := sys.Advance(sys.Now + 100_000); err != nil {
		t.Fatal(err)
	}
	mustReady(t, sys)
	var order []int
	for _, e := range sys.Trace[start:] {
		if e.From != "env" {
			var i int
			if _, err := fmt.Sscanf(e.From, "m%d", &i); err != nil {
				t.Fatalf("trace event from %q: %v", e.From, err)
			}
			order = append(order, i)
		}
	}
	return order
}

func sameOrder(t *testing.T, label string, got, want []int) {
	t.Helper()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("%s: dispatch order %v, want %v", label, got, want)
	}
}

// TestStaticPriorityTiesInNetworkOrder: the highest priority runs
// first, and equal priorities run in network order.
func TestStaticPriorityTiesInNetworkOrder(t *testing.T) {
	prio := []int{1, 3, 1, 3, 2}
	sys, ins := fanSystem(t, len(prio), rtos.DefaultConfig(), func(i int) int { return prio[i] })
	// Enable in reverse so arrival order cannot explain the result.
	sameOrder(t, "priorities 1,3,1,3,2", dispatch(t, sys, ins, 4, 3, 2, 1, 0), []int{1, 3, 4, 0, 2})
}

// TestRoundRobinCursorWraps: the search starts after the last task to
// run and wraps past the end of the network.
func TestRoundRobinCursorWraps(t *testing.T) {
	sys, ins := fanSystem(t, 4, rtos.DefaultConfig(), nil)
	sameOrder(t, "last task alone", dispatch(t, sys, ins, 3), []int{3})
	// The cursor wrapped to 0.
	sameOrder(t, "after the last task", dispatch(t, sys, ins, 3, 1, 0), []int{0, 1, 3})
	sameOrder(t, "second task alone", dispatch(t, sys, ins, 1), []int{1})
	// The cursor is at 2: task 3 first, then wrap to 0 and 1.
	sameOrder(t, "wrap from the middle", dispatch(t, sys, ins, 0, 1, 3), []int{3, 0, 1})
	sameOrder(t, "second task alone again", dispatch(t, sys, ins, 1), []int{1})
	// The cursor is at 2 and only tasks before it are enabled: the
	// search itself must wrap.
	sameOrder(t, "only tasks before the cursor", dispatch(t, sys, ins, 1, 0), []int{0, 1})
}

// TestReadySetSpansWords runs more than 64 tasks, so ranks and the
// round-robin cursor cross bitset word boundaries.
func TestReadySetSpansWords(t *testing.T) {
	const n = 150
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}

	prio := func(i int) int { return (i * 37) % 11 }
	sys, ins := fanSystem(t, n, rtos.DefaultConfig(), prio)
	want := append([]int(nil), all...)
	sort.SliceStable(want, func(a, b int) bool { return prio(want[a]) > prio(want[b]) })
	sameOrder(t, "static priority", dispatch(t, sys, ins, all...), want)

	rr, ins := fanSystem(t, n, rtos.DefaultConfig(), nil)
	sameOrder(t, "round robin, all", dispatch(t, rr, ins, all...), all)
	sameOrder(t, "round robin, one", dispatch(t, rr, ins, 100), []int{100})
	sameOrder(t, "round robin, wrap across words",
		dispatch(t, rr, ins, 3, 64, 70, 100, 120, 149), []int{120, 149, 3, 64, 70, 100})
	sameOrder(t, "round robin, one more", dispatch(t, rr, ins, 100), []int{100})
	sameOrder(t, "round robin, only ranks before the cursor",
		dispatch(t, rr, ins, 70, 3, 64), []int{3, 64, 70})
}

// scenarioTasks returns the task factory sim.Run uses in mode.
func scenarioTasks(t *testing.T, opt sim.Options) func(m *cfsm.CFSM) (*rtos.Task, error) {
	if opt.Mode == sim.VMExact {
		return func(m *cfsm.CFSM) (*rtos.Task, error) {
			task, _, _, err := sim.BuildVMTask(m, opt)
			return task, err
		}
	}
	params, err := estimate.Calibrate(opt.Profile)
	if err != nil {
		t.Fatal(err)
	}
	return func(m *cfsm.CFSM) (*rtos.Task, error) {
		r, err := cfsm.BuildReactive(m)
		if err != nil {
			return nil, err
		}
		g, err := sgraph.Build(r, opt.Ordering)
		if err != nil {
			return nil, err
		}
		est := estimate.EstimateSGraph(g, params, estimate.Options{Codegen: opt.Codegen})
		return rtos.NewBehavioralTask(m, func() int64 { return est.MaxCycles }), nil
	}
}

// TestReadySetAcrossScenarios replays the simulator's golden scenarios
// (the same seeds and modes: round-robin and static priority,
// preemption, hardware tasks, ISR-context tasks, chains, polling and
// every Mutant) step by step, checking the ready-set invariant after every
// EmitEnv and Advance. Each replay must also reproduce sim.Run's
// outcome, so it checks the run the simulator really performs.
func TestReadySetAcrossScenarios(t *testing.T) {
	for _, c := range []struct {
		from, to int64
		mode     sim.Mode
		check    bool
	}{
		{1, 120, sim.Behavioral, false},
		{1, 40, sim.VMExact, false},
		{200, 215, sim.VMExact, true},
	} {
		for seed := c.from; seed <= c.to; seed++ {
			sc, err := netfuzz.GenScenario(seed)
			if err != nil {
				t.Fatal(err)
			}
			opt := sim.Options{Cfg: sc.Cfg, Mode: c.mode, Profile: vm.HC11()}
			if c.check {
				opt.Check = sim.CheckOptions{VMAgainstReference: true, CycleBounds: true}
			}
			label := fmt.Sprintf("seed %d mode %d", seed, c.mode)
			want, werr := sim.Run(sc.Net, sc.Stimuli, sc.Horizon, opt)
			sys, gerr := replay(t, label, sc, scenarioTasks(t, opt))
			if (gerr == nil) != (werr == nil) {
				t.Fatalf("%s: replay error %v, sim.Run error %v", label, gerr, werr)
			}
			if gerr != nil {
				continue
			}
			if len(sys.Trace) != len(want.Trace) || sys.Now != want.Cycles ||
				sys.ScheduleCalls != want.System.ScheduleCalls || sys.BusyCycles != want.System.BusyCycles {
				t.Fatalf("%s: replay trace/cycles/sched/busy %d/%d/%d/%d, sim.Run %d/%d/%d/%d", label,
					len(sys.Trace), sys.Now, sys.ScheduleCalls, sys.BusyCycles,
					len(want.Trace), want.Cycles, want.System.ScheduleCalls, want.System.BusyCycles)
			}
		}
	}
}

// replay drives a scenario the way sim.Run does, checking the ready
// set after every step.
func replay(t *testing.T, label string, sc *netfuzz.Scenario, mk func(*cfsm.CFSM) (*rtos.Task, error)) (*rtos.System, error) {
	t.Helper()
	sys, err := rtos.NewSystem(sc.Net, sc.Cfg, mk)
	if err != nil {
		return nil, err
	}
	check := func(step string) {
		if err := rtos.CheckReadySet(sys); err != nil {
			t.Fatalf("%s: after %s at cycle %d: %v", label, step, sys.Now, err)
		}
	}
	check("NewSystem")
	stim := append([]sim.Stimulus(nil), sc.Stimuli...)
	sort.SliceStable(stim, func(i, j int) bool { return stim[i].Time < stim[j].Time })
	for _, st := range stim {
		if st.Time > sc.Horizon {
			break
		}
		if err := sys.Advance(st.Time); err != nil {
			return nil, err
		}
		check("Advance")
		if err := sys.EmitEnv(st.Signal, st.Value); err != nil {
			return nil, err
		}
		check("EmitEnv")
	}
	if err := sys.Advance(sc.Horizon); err != nil {
		return nil, err
	}
	check("final Advance")
	return sys, nil
}
