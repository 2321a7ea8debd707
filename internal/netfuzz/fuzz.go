package netfuzz

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"polis/internal/cfsm"
	"polis/internal/profile"
	"polis/internal/randcfsm"
	"polis/internal/rtos"
	"polis/internal/sim"
)

// ModeStats summarizes one mode's run for the report.
type ModeStats struct {
	Err         string
	Panicked    bool
	Serial      bool
	Contended   int64
	Lost        int64 // model's overwrite count
	PollDropped int64
	Emissions   int // non-env, non-poll trace events
}

// Report is the outcome of one fuzz run: the violations found (empty
// on success) and enough context to understand and replay them.
type Report struct {
	Seed       int64
	Config     Config
	Violations []Violation
	// Strict records whether the run qualified for the strict
	// cross-mode trace comparison (serialized, contention- and
	// loss-free); when false only the timing-independent invariants
	// were checked.
	Strict     bool
	Behavioral ModeStats
	VMExact    ModeStats
}

// Failed reports whether any invariant was violated.
func (r *Report) Failed() bool { return len(r.Violations) > 0 }

// Repro returns the one-line replay command for this run.
func (r *Report) Repro() string {
	return fmt.Sprintf("polisc fuzz -seed %d -config %q", r.Seed, r.Config.String())
}

// Format writes a human-readable failure report.
func (r *Report) Format(w io.Writer) {
	fmt.Fprintf(w, "seed %d config %s strict=%v\n", r.Seed, r.Config, r.Strict)
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  VIOLATION %s\n", v)
	}
	if r.Failed() {
		fmt.Fprintf(w, "  replay: %s\n", r.Repro())
	}
}

func (r *Report) violate(inv, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{Invariant: inv, Detail: fmt.Sprintf(format, args...)})
}

// buildRTOS derives a deterministic RTOS configuration from the
// scenario knobs and the seeded stream. All iteration is over network
// slices, never maps, so a seed replays exactly.
func buildRTOS(r *rand.Rand, net *cfsm.Network, cfg Config) rtos.Config {
	rc := rtos.DefaultConfig()
	rc.Mutant = cfg.Mutant
	rc.Policy = cfg.Policy
	rc.Preemptive = cfg.Preempt
	if rc.Policy == rtos.StaticPriority {
		for _, m := range net.Machines {
			rc.Priority[m] = r.Intn(len(net.Machines))
		}
	}
	hwIdx := -1
	if cfg.HW && len(net.Machines) > 1 {
		hwIdx = r.Intn(len(net.Machines))
		rc.HW[net.Machines[hwIdx]] = true
	}
	if cfg.Chains {
		var sw []*cfsm.CFSM
		for i, m := range net.Machines {
			if i != hwIdx {
				sw = append(sw, m)
			}
		}
		if len(sw) >= 2 {
			rc.Chains = [][]*cfsm.CFSM{{sw[0], sw[1]}}
		}
	}
	if cfg.Polling {
		// Candidates are the signals that cross the hardware/software
		// boundary: environment inputs and hardware-machine emissions.
		for _, s := range net.Signals {
			if len(net.Readers(s)) == 0 {
				continue
			}
			fromEnv := len(net.Writers(s)) == 0
			fromHW := false
			if hwIdx >= 0 {
				for _, w := range net.Writers(s) {
					if w == net.Machines[hwIdx] {
						fromHW = true
					}
				}
			}
			if (fromEnv || fromHW) && r.Intn(2) == 0 {
				rc.Deliver[s] = rtos.Polling
			}
		}
	}
	for _, s := range net.PrimaryInputs() {
		if rc.Deliver[s] == rtos.Polling {
			continue // Validate rejects InISR on polled signals
		}
		if r.Intn(5) == 0 {
			rc.InISR[s] = true
		}
	}
	return rc
}

// buildStimuli lays out the nominal spaced timeline and then applies
// the enabled fault injectors. Both modes replay the identical mutated
// timeline, so faults stress the semantics rather than the generator.
func buildStimuli(r *rand.Rand, net *cfsm.Network, cfg Config) ([]sim.Stimulus, int64) {
	prim := net.PrimaryInputs()
	vr := randcfsm.DefaultConfig().ValueRange
	st := make([]sim.Stimulus, 0, cfg.Stimuli)
	tnow := cfg.Gap
	for i := 0; i < cfg.Stimuli; i++ {
		s := prim[r.Intn(len(prim))]
		var v int64
		if !s.Pure {
			v = r.Int63n(vr)
		}
		st = append(st, sim.Stimulus{Time: tnow, Signal: s, Value: v})
		tnow += cfg.Gap
	}
	horizon := cfg.horizon()
	if cfg.Faults&FaultJitter != 0 {
		for i := range st {
			st[i].Time += r.Int63n(cfg.Gap) - cfg.Gap/2
			if st[i].Time < 1 {
				st[i].Time = 1
			}
		}
	}
	if cfg.Faults&FaultDrop != 0 {
		kept := st[:0]
		for _, s := range st {
			if r.Intn(8) != 0 {
				kept = append(kept, s)
			}
		}
		st = kept
	}
	if cfg.Faults&FaultBurst != 0 {
		var extra []sim.Stimulus
		for _, s0 := range st {
			if r.Intn(5) == 0 {
				var v int64
				if !s0.Signal.Pure {
					v = r.Int63n(vr)
				}
				extra = append(extra, sim.Stimulus{
					Time: s0.Time + 1 + r.Int63n(25), Signal: s0.Signal, Value: v})
			}
		}
		st = append(st, extra...)
	}
	if cfg.Faults&FaultTruncate != 0 {
		horizon = horizon/2 + 1
	}
	// Storm piles 1-3 duplicates onto the *same cycle* as an existing
	// stimulus (fresh values), so several environment events hit one
	// Advance step at once — the shape that exercises the batched
	// delivery queue and its one-place-buffer overwrite accounting.
	// Applied after the fault injectors so their draws are untouched.
	if cfg.Storm {
		var extra []sim.Stimulus
		for _, s0 := range st {
			if r.Intn(3) != 0 {
				continue
			}
			for k := 1 + r.Intn(3); k > 0; k-- {
				var v int64
				if !s0.Signal.Pure {
					v = r.Int63n(vr)
				}
				extra = append(extra, sim.Stimulus{Time: s0.Time, Signal: s0.Signal, Value: v})
			}
		}
		st = append(st, extra...)
	}
	return st, horizon
}

// runGuarded executes one simulation with a panic barrier: any panic
// escaping the runtime path is itself an invariant violation (the
// acceptance bar is errors, never panics), and it must not kill the
// campaign.
func runGuarded(net *cfsm.Network, stimuli []sim.Stimulus, horizon int64,
	opt sim.Options) (res *sim.Result, err error, panicMsg string) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, nil
			panicMsg = fmt.Sprint(p)
		}
	}()
	res, err = sim.Run(net, stimuli, horizon, opt)
	return res, err, ""
}

// traceSeqs extracts the per-signal sequences of machine emissions
// (environment and poll-delivery echoes excluded).
func traceSeqs(trace []rtos.TraceEvent) map[string][]int64 {
	out := map[string][]int64{}
	for _, e := range trace {
		if e.Emitted() {
			out[e.Signal.Name] = append(out[e.Signal.Name], e.Value)
		}
	}
	return out
}

// RunOne generates the scenario for (seed, cfg), runs it in both modes
// and evaluates every invariant. It is fully deterministic: the same
// pair always returns the same report.
func RunOne(seed int64, cfg Config) *Report {
	rep := &Report{Seed: seed, Config: cfg}
	ncfg, err := cfg.normalize()
	if err != nil {
		rep.violate("generate", "%v", err)
		return rep
	}
	cfg, rep.Config = ncfg, ncfg

	r := rand.New(rand.NewSource(seed))
	net, _, err := randcfsm.NewTopologyNetwork(r, cfg.Machines, randcfsm.DefaultConfig(), cfg.Topology)
	if err != nil {
		rep.violate("generate", "%v", err)
		return rep
	}
	rc := buildRTOS(r, net, cfg)
	stimuli, horizon := buildStimuli(r, net, cfg)

	// Specialization needs evidence: a behavioral profiling pre-run
	// over the identical timeline captures per-module TEST outcome
	// frequencies. A failing pre-run leaves prof nil — the checked
	// runs then execute unspecialized and report the underlying
	// failure themselves.
	var prof *profile.Profile
	if cfg.Specialize {
		col := profile.NewCollector()
		preOpt := sim.Options{Cfg: rc, Mode: sim.Behavioral, Probe: col, Reduce: cfg.Reduce}
		if _, err, pmsg := runGuarded(net, stimuli, horizon, preOpt); err == nil && pmsg == "" {
			prof = col.Profile()
		}
	}

	type modeRun struct {
		res   *sim.Result
		model *Model
		ok    bool
	}
	run := func(mode sim.Mode, ms *ModeStats) modeRun {
		label := mode.Name()
		model := NewModel()
		opt := sim.Options{
			Cfg: rc, Mode: mode, Probe: model, Reduce: cfg.Reduce,
			Specialize: prof,
			Check:      sim.CheckOptions{VMAgainstReference: true, CycleBounds: true},
		}
		res, err, pmsg := runGuarded(net, stimuli, horizon, opt)
		if pmsg != "" {
			ms.Panicked = true
			rep.violate("panic", "%s mode panicked: %s", label, pmsg)
			return modeRun{model: model}
		}
		if err != nil {
			ms.Err = err.Error()
			rep.violate("run-error", "%s mode: %v", label, err)
		}
		model.Finish()
		for _, v := range model.Violations() {
			rep.Violations = append(rep.Violations,
				Violation{Invariant: v.Invariant, Detail: label + " mode: " + v.Detail})
		}
		ms.Serial = model.Serial()
		ms.Contended = model.Contended()
		ms.Lost = model.TotalLost()
		if res != nil {
			ms.PollDropped = res.System.PollDropped
			for _, e := range res.Trace {
				if e.Emitted() {
					ms.Emissions++
				}
			}
		}
		return modeRun{res: res, model: model, ok: err == nil && res != nil}
	}

	beh := run(sim.Behavioral, &rep.Behavioral)
	vme := run(sim.VMExact, &rep.VMExact)

	// Strict cross-mode comparison: per-signal output traces, loss
	// accounting and final states must match exactly — but only when
	// both runs are observed to be serialized (every stimulus hit a
	// quiescent system) and contention-free, so any remaining
	// difference is a genuine semantics divergence rather than legal
	// GALS nondeterminism. Overwrites of flags held by a disabled task
	// are deterministic under serialization (they are a function of the
	// task's input history), so observed loss does NOT disqualify a
	// run; only ordering races do. DAG fan-in and polling ports keep
	// races and latched events invisible to the model, so those regimes
	// never qualify.
	rep.Strict = cfg.Topology != randcfsm.TopoDAG && !cfg.Polling &&
		cfg.Mutant == rtos.MutantNone && beh.ok && vme.ok &&
		beh.model.Serial() && vme.model.Serial() &&
		beh.model.Contended() == 0 && vme.model.Contended() == 0 &&
		beh.res.System.PollDropped == 0 && vme.res.System.PollDropped == 0
	if rep.Strict {
		compareStrict(rep, beh.res, vme.res)
	}
	return rep
}

// compareStrict checks that a serialized run produced identical
// per-signal emission sequences, task accounting and final states in
// both modes.
func compareStrict(rep *Report, a, b *sim.Result) {
	sa, sb := traceSeqs(a.Trace), traceSeqs(b.Trace)
	names := map[string]bool{}
	for n := range sa {
		names[n] = true
	}
	for n := range sb {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	for _, n := range sorted {
		va, vb := sa[n], sb[n]
		if len(va) != len(vb) {
			rep.violate("trace-divergence",
				"signal %s emitted %d times behavioral vs %d times vm in a serialized loss-free run",
				n, len(va), len(vb))
			continue
		}
		for i := range va {
			if va[i] != vb[i] {
				rep.violate("trace-divergence",
					"signal %s emission %d: behavioral value %d, vm value %d",
					n, i, va[i], vb[i])
				break
			}
		}
	}
	for i := range a.System.Tasks {
		ta, tb := a.System.Tasks[i], b.System.Tasks[i]
		if ta.Executions != tb.Executions || ta.Fired != tb.Fired || ta.Lost != tb.Lost {
			rep.violate("state-divergence",
				"task %s accounting differs: behavioral exec/fired/lost %d/%d/%d, vm %d/%d/%d",
				ta.M.Name, ta.Executions, ta.Fired, ta.Lost, tb.Executions, tb.Fired, tb.Lost)
		}
		for _, sv := range ta.M.States {
			if ta.State(sv) != tb.State(sv) {
				rep.violate("state-divergence",
					"task %s final state %s: behavioral %d, vm %d",
					ta.M.Name, sv.Name, ta.State(sv), tb.State(sv))
			}
		}
	}
}

// RandomConfig draws a scenario shape from the seeded stream; the
// campaign uses it to diversify coverage while staying replayable.
func RandomConfig(r *rand.Rand, mutant rtos.Mutant) Config {
	topos := []randcfsm.Topology{
		randcfsm.TopoIndependent, randcfsm.TopoChain,
		randcfsm.TopoChain, randcfsm.TopoDAG,
	}
	c := Config{
		Machines: 2 + r.Intn(4),
		Topology: topos[r.Intn(len(topos))],
		Stimuli:  4 + r.Intn(16),
		Gap:      int64(20_000 + r.Intn(80_000)),
		Policy:   rtos.RoundRobin,
		Faults:   Fault(r.Intn(int(faultAll) + 1)),
		Mutant:   mutant,
	}
	if r.Intn(2) == 0 {
		c.Policy = rtos.StaticPriority
		if r.Intn(3) == 0 {
			c.Preempt = true
		}
	}
	if r.Intn(3) == 0 {
		c.Polling = true
	}
	if r.Intn(3) == 0 {
		c.HW = true
	}
	if r.Intn(3) == 0 {
		c.Chains = true
	}
	// Drawn after every pre-existing knob so adding reduction did not
	// reshuffle the scenario shapes of historical seeds.
	if r.Intn(2) == 0 {
		c.Reduce = true
	}
	// Same precedent as Reduce: drawn last so historical seeds keep
	// their shapes, they just gain an occasional storm on top.
	if r.Intn(3) == 0 {
		c.Storm = true
	}
	// Specialize rides the same rule: appended after every historical
	// knob, so earlier seeds keep their shapes and just sometimes gain
	// a profiling pre-run plus hot-path-reordered task graphs.
	if r.Intn(3) == 0 {
		c.Specialize = true
	}
	return c
}

// configSeed derives the config-shaping stream from the run seed; the
// two streams must differ or the scenario shape and content correlate.
func configSeed(seed int64) int64 { return seed*2654435761 + 0x9e3779b9 }

// CampaignResult summarizes a fuzz campaign.
type CampaignResult struct {
	Runs     int
	Strict   int // runs that qualified for strict comparison
	Failures []*Report
}

// Campaign runs `runs` seeds starting at startSeed. With randomize,
// each seed draws its own scenario shape via RandomConfig (keeping
// cfg.Mutant); otherwise every seed replays cfg. Failures are shrunk
// before reporting. Progress goes to w when non-nil.
func Campaign(startSeed int64, runs int, cfg Config, randomize bool, w io.Writer) *CampaignResult {
	out := &CampaignResult{}
	for i := 0; i < runs; i++ {
		seed := startSeed + int64(i)
		c := cfg
		if randomize {
			c = RandomConfig(rand.New(rand.NewSource(configSeed(seed))), cfg.Mutant)
		}
		rep := RunOne(seed, c)
		out.Runs++
		if rep.Strict {
			out.Strict++
		}
		if rep.Failed() {
			if w != nil {
				rep.Format(w)
			}
			if min, _ := Shrink(seed, rep.Config, 64); min.Failed() && min.Config != rep.Config {
				if w != nil {
					fmt.Fprintf(w, "  shrunk: %s\n", min.Repro())
				}
				rep = min
			}
			out.Failures = append(out.Failures, rep)
		}
	}
	return out
}

// shrinkCandidates proposes strictly simpler configs.
func shrinkCandidates(c Config) []Config {
	var out []Config
	add := func(mut func(*Config)) {
		d := c
		mut(&d)
		out = append(out, d)
	}
	if c.Machines > 1 {
		add(func(d *Config) { d.Machines-- })
	}
	if c.Stimuli > 1 {
		add(func(d *Config) { d.Stimuli /= 2 })
		add(func(d *Config) { d.Stimuli-- })
	}
	for _, fn := range faultNames {
		if c.Faults&fn.bit != 0 {
			bit := fn.bit
			add(func(d *Config) { d.Faults &^= bit })
		}
	}
	if c.Preempt {
		add(func(d *Config) { d.Preempt = false })
	}
	if c.Polling {
		add(func(d *Config) { d.Polling = false })
	}
	if c.HW {
		add(func(d *Config) { d.HW = false })
	}
	if c.Chains {
		add(func(d *Config) { d.Chains = false })
	}
	if c.Reduce {
		add(func(d *Config) { d.Reduce = false })
	}
	if c.Storm {
		add(func(d *Config) { d.Storm = false })
	}
	if c.Specialize {
		add(func(d *Config) { d.Specialize = false })
	}
	if c.Policy == rtos.StaticPriority && !c.Preempt {
		add(func(d *Config) { d.Policy = rtos.RoundRobin })
	}
	return out
}

// Shrink greedily minimizes a failing configuration: each step adopts
// the first simpler config that still fails under the same seed, until
// a fixpoint or the run budget is exhausted. Returns the minimal
// failing report and the number of runs spent. Determinism of RunOne
// makes the result stable.
func Shrink(seed int64, cfg Config, budget int) (*Report, int) {
	best := RunOne(seed, cfg)
	spent := 1
	if !best.Failed() {
		return best, spent
	}
	for spent < budget {
		improved := false
		for _, cand := range shrinkCandidates(best.Config) {
			rep := RunOne(seed, cand)
			spent++
			if rep.Failed() {
				best = rep
				improved = true
				break
			}
			if spent >= budget {
				break
			}
		}
		if !improved {
			break
		}
	}
	return best, spent
}
