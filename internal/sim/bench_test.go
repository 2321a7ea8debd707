package sim_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"polis/internal/cfsm"
	"polis/internal/expr"
	"polis/internal/profile"
	"polis/internal/randcfsm"
	"polis/internal/rtos"
	"polis/internal/sim"
	"polis/internal/sim/internal/refsim"
)

// benchCase is a reusable throughput scenario: a large randomized
// network and a dense stimulus train over its primary inputs.
type benchCase struct {
	net     *cfsm.Network
	stimuli []sim.Stimulus
	horizon int64
}

// makeBenchCase builds a deterministic n-machine network with a
// stimulus train of the given round count and spacing. Independent
// topologies exercise the scheduler and the partition runner; chain
// topologies cascade every stimulus through several machines, so
// reaction execution dominates.
func makeBenchCase(n int, topo randcfsm.Topology, rounds int, gap int64) *benchCase {
	r := rand.New(rand.NewSource(42))
	net, _, err := randcfsm.NewTopologyNetwork(r, n, randcfsm.DefaultConfig(), topo)
	if err != nil {
		panic(err)
	}
	prim := net.PrimaryInputs()
	var stim []sim.Stimulus
	tnow := int64(100)
	for round := 0; round < rounds; round++ {
		for _, s := range prim {
			var v int64
			if !s.Pure {
				v = r.Int63n(randcfsm.DefaultConfig().ValueRange)
			}
			stim = append(stim, sim.Stimulus{Time: tnow, Signal: s, Value: v})
			tnow += gap
		}
		tnow += 5000
	}
	return &benchCase{net: net, stimuli: stim, horizon: tnow + 50_000}
}

// reactions sums task executions over all systems of a result.
func reactions(res *sim.Result) int64 {
	var total int64
	systems := res.Systems
	if systems == nil {
		systems = []*rtos.System{res.System}
	}
	for _, sys := range systems {
		for _, t := range sys.Tasks {
			total += t.Executions
		}
	}
	return total
}

// BenchmarkSimThroughput measures end-to-end co-simulation throughput
// (reactions per second, reported as a custom metric) on 10²- and
// 10³-module networks: the dense engine serial, the dense engine with
// GALS partition parallelism, and the frozen pre-change reference
// engine as the baseline. Whole runs are timed — task build included —
// so the numbers reflect what a caller of sim.Run observes. The loop
// case splits sim.Run at its layer boundary: it times only
// rtos.NewSystem and the EmitEnv/Advance event loop of the serial
// engine, with synthesis done once outside the timer; the
// build-excluded speedup gate is TestSimThroughputSpeedup.
func BenchmarkSimThroughput(b *testing.B) {
	for _, n := range []int{100, 1000} {
		bc := makeBenchCase(n, randcfsm.TopoIndependent, 2000/n+4, 40)
		run := func(b *testing.B, f func() int64) {
			b.ReportAllocs()
			var total int64
			start := time.Now()
			for i := 0; i < b.N; i++ {
				total += f()
			}
			secs := time.Since(start).Seconds()
			if secs > 0 {
				b.ReportMetric(float64(total)/secs, "reactions/s")
			}
		}
		b.Run(fmt.Sprintf("n%d/engine", n), func(b *testing.B) {
			run(b, func() int64 {
				res, err := sim.Run(bc.net, bc.stimuli, bc.horizon,
					sim.Options{Cfg: rtos.DefaultConfig()})
				if err != nil {
					b.Fatal(err)
				}
				return reactions(res)
			})
		})
		b.Run(fmt.Sprintf("n%d/engine-parallel", n), func(b *testing.B) {
			run(b, func() int64 {
				res, err := sim.Run(bc.net, bc.stimuli, bc.horizon,
					sim.Options{Cfg: rtos.DefaultConfig(), Partition: true})
				if err != nil {
					b.Fatal(err)
				}
				return reactions(res)
			})
		})
		b.Run(fmt.Sprintf("n%d/loop", n), func(b *testing.B) {
			opt := sim.Options{Cfg: rtos.DefaultConfig()}
			costs, err := sim.BehavioralCosts(bc.net, opt)
			if err != nil {
				b.Fatal(err)
			}
			// Tasks carry run state, so each system gets fresh task
			// records around the precomputed costs.
			mk := func(m *cfsm.CFSM) (*rtos.Task, error) {
				c := costs[m]
				return rtos.NewBehavioralTask(m, func() int64 { return c }), nil
			}
			loop := func() int64 {
				sys, err := rtos.NewSystem(bc.net, opt.Cfg, mk)
				if err != nil {
					b.Fatal(err)
				}
				sys.Trace = make([]rtos.TraceEvent, 0, len(bc.stimuli))
				for _, st := range bc.stimuli {
					if err := sys.Advance(st.Time); err != nil {
						b.Fatal(err)
					}
					if err := sys.EmitEnv(st.Signal, st.Value); err != nil {
						b.Fatal(err)
					}
				}
				if err := sys.Advance(bc.horizon); err != nil {
					b.Fatal(err)
				}
				return reactions(&sim.Result{System: sys})
			}
			// The loop must do the work sim.Run does.
			res, err := sim.Run(bc.net, bc.stimuli, bc.horizon, opt)
			if err != nil {
				b.Fatal(err)
			}
			if got, want := loop(), reactions(res); got != want {
				b.Fatalf("loop ran %d reactions, sim.Run %d", got, want)
			}
			b.ResetTimer()
			run(b, loop)
		})
		b.Run(fmt.Sprintf("n%d/refsim", n), func(b *testing.B) {
			run(b, func() int64 {
				res, err := refsim.Run(bc.net, append([]sim.Stimulus(nil), bc.stimuli...), bc.horizon,
					sim.Options{Cfg: rtos.DefaultConfig()})
				if err != nil {
					b.Fatal(err)
				}
				var total int64
				for _, t := range res.System.Tasks {
					total += t.Executions
				}
				return total
			})
		})
	}
}

// specBenchCase builds `pairs` independent scaler->limiter chains with
// a hot-biased stimulus train (seven of eight samples double past the
// limiter's clamp), and captures the matching execution profile with a
// probed behavioral run.
func specBenchCase(pairs, rounds int) (*benchCase, *profile.Profile) {
	n := cfsm.NewNetwork("specbench")
	var samples []*cfsm.Signal
	for k := 0; k < pairs; k++ {
		prefix := fmt.Sprintf("s%02d", k)
		sample := n.NewSignal(prefix+"_sample", false)
		mid := n.NewSignal(prefix+"_mid", false)
		out := n.NewSignal(prefix+"_out", false)
		sc := cfsm.New(prefix + "_scaler")
		sc.AttachInput(sample)
		sc.AttachOutput(mid)
		sc.AddTransition([]cfsm.Cond{cfsm.On(sc.Present(sample), 1)},
			sc.EmitV(mid, expr.Mul(expr.V("?"+sample.Name), expr.C(2))))
		lim := cfsm.New(prefix + "_limiter")
		lim.AttachInput(mid)
		lim.AttachOutput(out)
		pm := lim.Present(mid)
		hi := lim.Pred(expr.Gt(expr.V("?"+mid.Name), expr.C(10)))
		lim.AddTransition([]cfsm.Cond{cfsm.On(pm, 1), cfsm.On(hi, 1)},
			lim.EmitV(out, expr.C(10)))
		lim.AddTransition([]cfsm.Cond{cfsm.On(pm, 1), cfsm.On(hi, 0)},
			lim.EmitV(out, expr.V("?"+mid.Name)))
		if err := n.Add(sc); err != nil {
			panic(err)
		}
		if err := n.Add(lim); err != nil {
			panic(err)
		}
		samples = append(samples, sample)
	}
	var stim []sim.Stimulus
	tnow := int64(100)
	for round := 0; round < rounds; round++ {
		for _, s := range samples {
			v := int64(20 + round%5) // hot: doubles past the clamp
			if round%8 == 0 {
				v = 2 // cold: below the clamp
			}
			stim = append(stim, sim.Stimulus{Time: tnow, Signal: s, Value: v})
			tnow += 40
		}
		tnow += 5000
	}
	bc := &benchCase{net: n, stimuli: stim, horizon: tnow + 50_000}
	col := profile.NewCollector()
	if _, err := sim.Run(n, stim, bc.horizon,
		sim.Options{Cfg: rtos.DefaultConfig(), Probe: col}); err != nil {
		panic(err)
	}
	return bc, col.Profile()
}

// BenchmarkSimSpecialization measures the payoff of profile-guided
// hot-path specialization on a hot-biased cycle-exact workload: the
// identical scenario VMExact with specialization off and on. Besides
// wall-clock reactions/s it reports the deterministic busy
// cycles-per-reaction of the simulated target, the number the
// reordering is supposed to shrink.
func BenchmarkSimSpecialization(b *testing.B) {
	bc, prof := specBenchCase(16, 250)
	run := func(b *testing.B, spec *profile.Profile) {
		b.ReportAllocs()
		var totalReact, totalBusy int64
		start := time.Now()
		for i := 0; i < b.N; i++ {
			res, err := sim.Run(bc.net, bc.stimuli, bc.horizon,
				sim.Options{Cfg: rtos.DefaultConfig(), Mode: sim.VMExact, Specialize: spec})
			if err != nil {
				b.Fatal(err)
			}
			totalReact += reactions(res)
			systems := res.Systems
			if systems == nil {
				systems = []*rtos.System{res.System}
			}
			for _, sys := range systems {
				totalBusy += sys.BusyCycles
			}
		}
		secs := time.Since(start).Seconds()
		if secs > 0 {
			b.ReportMetric(float64(totalReact)/secs, "reactions/s")
		}
		if totalReact > 0 {
			b.ReportMetric(float64(totalBusy)/float64(totalReact), "cyc/reaction")
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, prof) })
}

// TestSimThroughputSpeedup is the acceptance gate of the engine
// rewrite: on a 100-module network whose stimuli cascade through
// machine chains (~66k reactions per run), the dense engine's
// simulation loop must be at least 3x faster than the frozen
// pre-change reference. Task construction — identical work in both
// engines, dominated by BDD synthesis — is measured via an empty run
// and subtracted, so the gate isolates exactly what the rewrite
// changed. Both engines must agree on the reaction count first, so the
// gate cannot pass by doing less work.
func TestSimThroughputSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing gate skipped in -short")
	}
	if raceEnabled {
		t.Skip("timing gate skipped under the race detector: instrumentation skews relative costs")
	}
	bc := makeBenchCase(100, randcfsm.TopoChain, 400, 200)
	opt := sim.Options{Cfg: rtos.DefaultConfig()}
	engine := func(st []sim.Stimulus) int64 {
		res, err := sim.Run(bc.net, st, bc.horizon, opt)
		if err != nil {
			t.Fatal(err)
		}
		return reactions(res)
	}
	reference := func(st []sim.Stimulus) int64 {
		res, err := refsim.Run(bc.net, st, bc.horizon, opt)
		if err != nil {
			t.Fatal(err)
		}
		var total int64
		for _, task := range res.System.Tasks {
			total += task.Executions
		}
		return total
	}
	loopTime := func(f func(st []sim.Stimulus) int64) (time.Duration, int64) {
		start := time.Now()
		f(nil)
		build := time.Since(start)
		start = time.Now()
		n := f(append([]sim.Stimulus(nil), bc.stimuli...))
		full := time.Since(start)
		loop := full - build
		if loop < time.Microsecond {
			loop = time.Microsecond
		}
		return loop, n
	}
	// Warm both paths once.
	engine(bc.stimuli)
	reference(append([]sim.Stimulus(nil), bc.stimuli...))
	// Scheduler noise on a shared runner only ever inflates a timing,
	// so the minimum over trials is the closest observation of each
	// engine's true loop cost; the gate compares best against best.
	best := func(f func(st []sim.Stimulus) int64) (time.Duration, int64) {
		var min time.Duration
		var n int64
		for trial := 0; trial < 5; trial++ {
			d, nn := loopTime(f)
			if trial == 0 || d < min {
				min = d
			}
			n = nn
		}
		return min, n
	}
	de, ne := best(engine)
	dr, nr := best(reference)
	if ne != nr {
		t.Fatalf("engines disagree on work: %d vs %d reactions", ne, nr)
	}
	if ne == 0 {
		t.Fatal("benchmark scenario produced no reactions")
	}
	speedup := float64(dr) / float64(de)
	t.Logf("loop speedup over reference: %.2fx (engine %v, reference %v, %d reactions)",
		speedup, de, dr, ne)
	if speedup < 3.0 {
		t.Fatalf("engine loop is %.2fx the reference, want >= 3x", speedup)
	}
}
