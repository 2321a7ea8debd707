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
	"polis/internal/vm"
)

// benchCase is a reusable throughput scenario: a large randomized
// network and a dense stimulus train over its primary inputs.
type benchCase struct {
	net     *cfsm.Network
	stimuli []sim.Stimulus
	horizon int64
}

// makeBenchCase builds a deterministic n-machine network of
// independent machines, which exercise the scheduler and the partition
// runner, with a stimulus train of the given round count.
func makeBenchCase(n, rounds int) *benchCase {
	r := rand.New(rand.NewSource(42))
	net, _, err := randcfsm.NewTopologyNetwork(r, n, randcfsm.DefaultConfig(), randcfsm.TopoIndependent)
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
			tnow += 40
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
// 10³-module networks: the dense engine serial and with GALS partition
// parallelism, and at 10² also cycle-exact on the virtual CPU
// (VMExact, the mechanism of perfbench's sim-vm case). Whole runs are
// timed — task build included — so the numbers reflect what a caller
// of sim.Run observes. The build-vm and loop cases split sim.Run at its
// layer boundary: build-vm times only VMExact task build
// (sim.BuildVMTask over every machine), and loop times only
// rtos.NewSystem and the EmitEnv/Advance event loop of the serial
// engine, with synthesis done once outside the timer.
func BenchmarkSimThroughput(b *testing.B) {
	for _, n := range []int{100, 1000} {
		bc := makeBenchCase(n, 2000/n+4)
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
		if n == 100 {
			b.Run(fmt.Sprintf("n%d/engine-vm", n), func(b *testing.B) {
				run(b, func() int64 {
					res, err := sim.Run(bc.net, bc.stimuli, bc.horizon,
						sim.Options{Cfg: rtos.DefaultConfig(), Mode: sim.VMExact})
					if err != nil {
						b.Fatal(err)
					}
					return reactions(res)
				})
			})
			b.Run(fmt.Sprintf("n%d/build-vm", n), func(b *testing.B) {
				opt := sim.Options{Cfg: rtos.DefaultConfig(), Mode: sim.VMExact, Profile: vm.HC11()}
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					for _, m := range bc.net.Machines {
						if _, _, _, err := sim.BuildVMTask(m, opt); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		}
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
				drive(b, sys, bc.stimuli, bc.horizon, true)
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
