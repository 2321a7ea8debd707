package main

import (
	"fmt"
	"math/rand"

	"polis/internal/cfsm"
	"polis/internal/pipeline"
	"polis/internal/randcfsm"
	"polis/internal/rtos"
	"polis/internal/sim"
	"polis/internal/vm"
)

// Sizes of the co-simulation workload.
const (
	simMachines = 100
	simStimuli  = 200_000 // environment events, in rounds over the primary inputs
	simGap      = 200     // cycles between the stimuli of one round
	simRest     = 5000    // idle cycles between rounds
)

// simCase is the co-simulation input: a chain of machines generated
// from the corpus seed and a stimulus train over its primary inputs
// whose values come from the run seed.
type simCase struct {
	net     *cfsm.Network
	stimuli []sim.Stimulus
	until   int64
}

func makeSimCase(corpus, seed int64) (*simCase, error) {
	cfg := randcfsm.DefaultConfig()
	net, _, err := randcfsm.NewTopologyNetwork(rand.New(rand.NewSource(corpus)), simMachines, cfg, randcfsm.TopoChain)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	prim := net.PrimaryInputs()
	var stim []sim.Stimulus
	t := int64(100)
	for i := 0; i < simStimuli; i++ {
		s := prim[i%len(prim)]
		var v int64
		if !s.Pure {
			v = r.Int63n(cfg.ValueRange)
		}
		stim = append(stim, sim.Stimulus{Time: t, Signal: s, Value: v})
		t += simGap
		if i%len(prim) == len(prim)-1 {
			t += simRest
		}
	}
	return &simCase{net: net, stimuli: stim, until: t + 50_000}, nil
}

func simOptions() sim.Options {
	return sim.Options{Cfg: rtos.DefaultConfig(), Mode: sim.VMExact}
}

func reactionsOf(sys *rtos.System) int64 {
	var n int64
	for _, t := range sys.Tasks {
		n += t.Executions
	}
	return n
}

// runSimVM times sim.Run in VMExact mode, serially, over the chain.
// Set-up makes a checked run (every reaction cross-checked against the
// interpreter and the cycle bounds) whose trace the timed runs must
// reproduce.
func runSimVM(e *env) (*report, error) {
	var (
		sc        *simCase
		ref       *sim.Result
		arts      []*pipeline.Artifact
		wantHash  uint64
		wantReact int64
	)
	setup, err := setupMedian(setupReps, func() error {
		var err error
		if sc, err = makeSimCase(e.corpus, e.seed); err != nil {
			return err
		}
		opt := simOptions()
		opt.Check = sim.CheckOptions{VMAgainstReference: true, CycleBounds: true}
		if ref, err = sim.Run(sc.net, sc.stimuli, sc.until, opt); err != nil {
			return err
		}
		wantHash, wantReact = traceHash(ref.Trace), reactionsOf(ref.System)
		arts, err = pipeline.RunModules(sc.net.Machines, pipeline.Options{}, pipeline.Config{Jobs: e.jobs})
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := &report{sizes: fmt.Sprintf("machines=%d topology=chain stimuli=%d primary_inputs=%d reactions=%d mode=vm-exact serial",
		simMachines, len(sc.stimuli), len(sc.net.PrimaryInputs()), wantReact)}

	// The generated code the simulator runs must be the pipeline's:
	// both measure the same object code.
	var artBytes int64
	for _, a := range arts {
		artBytes += int64(a.CodeSize)
	}
	rep.attempted++
	if artBytes != ref.CodeBytes {
		rep.failed++
		fmt.Printf("oracle: simulator code bytes %d, pipeline artifacts %d\n", ref.CodeBytes, artBytes)
	}

	var res *sim.Result
	op := func() (int, error) {
		var err error
		res, err = sim.Run(sc.net, sc.stimuli, sc.until, simOptions())
		if err != nil {
			return 0, err
		}
		return int(reactionsOf(res.System)), nil
	}
	after := func() {
		rep.attempted++
		bad := simOracle(traceHash(res.Trace), reactionsOf(res.System), wantHash, wantReact)
		for _, b := range bad {
			fmt.Println("oracle:", b)
		}
		rep.failed += int64(len(bad))
	}

	if e.traced {
		rep.layers = make(map[string]float64)
		untraced, err := timeLoop(e.budget/2, 3, op, after)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		var sys *rtos.System
		traced, err := timeLoop(e.budget/2, 3, func() (int, error) {
			var err error
			if sys, err = tracedSim(tr, sc); err != nil {
				return 0, err
			}
			res = &sim.Result{Trace: sys.Trace, System: sys}
			return int(reactionsOf(sys)), nil
		}, after)
		if err != nil {
			return nil, err
		}
		rep.layers["rtos.reactions"] = float64(reactionsOf(sys))
		rep.layers["rtos.schedule_calls"] = float64(sys.ScheduleCalls)
		rep.layers["rtos.busy_cycles"] = float64(sys.BusyCycles)
		rep.layers["rtos.utilization"] = sys.Utilization()
		rep.layers["rtos.cycles_per_reaction"] = float64(sys.BusyCycles) / float64(reactionsOf(sys))
		rep.layers["rtos.latency_p99_cycles"] = quantile(eventLatencies(sys.Trace, sc.net), 0.99)
		codeMetrics(rep.layers, arts)
		finishTrace(e, tr, rep.layers, map[string]string{
			"sim.BuildVMTask": "sim.build_s",
			"rtos.Loop":       "sim.loop_s",
		}, msOf(untraced.durs), msOf(traced.durs))
		return rep, nil
	}
	st, err := timeLoop(e.budget, 3, op, after)
	if err != nil {
		return nil, err
	}
	rep.e2e = map[string]float64{"setup_s": setup}
	st.fill(rep.e2e, 0.8)
	return rep, nil
}

// tracedSim is sim.Run split at its layer boundary: every task is built
// with sim.BuildVMTask under its own span, then the EmitEnv/Advance
// loop runs over an rtos.System fed the prebuilt tasks.
func tracedSim(tr *tracer, sc *simCase) (*rtos.System, error) {
	opt := simOptions()
	opt.Profile = vm.HC11() // sim.Run's default target
	op := tr.open("op", -1, -1)
	defer tr.close(op)
	tasks := make(map[*cfsm.CFSM]*rtos.Task, len(sc.net.Machines))
	for i, m := range sc.net.Machines {
		var (
			t   *rtos.Task
			err error
		)
		tr.do("sim.BuildVMTask", op, i, func() { t, _, _, err = sim.BuildVMTask(m, opt) })
		if err != nil {
			return nil, err
		}
		tasks[m] = t
	}
	loop := tr.open("rtos.Loop", op, -1)
	defer tr.close(loop)
	sys, err := rtos.NewSystem(sc.net, opt.Cfg, func(m *cfsm.CFSM) (*rtos.Task, error) { return tasks[m], nil })
	if err != nil {
		return nil, err
	}
	for _, st := range sc.stimuli {
		if err := sys.Advance(st.Time); err != nil {
			return nil, err
		}
		if err := sys.EmitEnv(st.Signal, st.Value); err != nil {
			return nil, err
		}
	}
	return sys, sys.Advance(sc.until)
}

// eventLatencies is the Section IV event-to-reaction latency: for each
// environment event, the cycles until the first emission by a task
// that reads the event's signal, looking no further than the next
// environment event on the same signal.
func eventLatencies(trace []rtos.TraceEvent, net *cfsm.Network) []float64 {
	readers := make(map[*cfsm.Signal]map[string]bool)
	for _, s := range net.PrimaryInputs() {
		rs := make(map[string]bool)
		for _, m := range net.Readers(s) {
			rs[m.Name] = true
		}
		readers[s] = rs
	}
	var lats []float64
	for i, ev := range trace {
		if ev.From != "env" {
			continue
		}
		rs := readers[ev.Signal]
		for _, f := range trace[i+1:] {
			if f.Signal == ev.Signal && f.From == "env" {
				break
			}
			if rs[f.From] {
				lats = append(lats, float64(f.Time-ev.Time))
				break
			}
		}
	}
	return lats
}
