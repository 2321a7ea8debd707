package experiments

import (
	"sort"
	"strings"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/rtos"
	"polis/internal/vm"
)

// TestTable1Accuracy reproduces the paper's headline Table I claim:
// the s-graph estimator tracks exact object-code measurements closely
// on every dashboard module, on both targets.
func TestTable1Accuracy(t *testing.T) {
	for _, prof := range []*vm.Profile{vm.HC11(), vm.R3K()} {
		rows, err := Table1(prof)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows) != 9 {
			t.Fatalf("%s: %d rows", prof.Name, len(rows))
		}
		for _, r := range rows {
			if r.SizeErrPct < -20 || r.SizeErrPct > 20 {
				t.Errorf("%s/%s: size error %.1f%% too large (est %d act %d)",
					prof.Name, r.Module, r.SizeErrPct, r.EstSize, r.ActSize)
			}
			if r.CycErrPct < -20 || r.CycErrPct > 20 {
				t.Errorf("%s/%s: cycle error %.1f%% too large (est %d act %d)",
					prof.Name, r.Module, r.CycErrPct, r.EstMaxCyc, r.ActMaxCyc)
			}
			if r.EstMinCyc > r.EstMaxCyc || r.ActMinCyc > r.ActMaxCyc {
				t.Errorf("%s/%s: min exceeds max", prof.Name, r.Module)
			}
		}
		out := FormatTable1(prof, rows)
		if !strings.Contains(out, "belt") || !strings.Contains(out, "err%") {
			t.Error("table rendering broken")
		}
	}
}

// TestTable2Shape reproduces the Table II ordering: naive is never
// better than the support-constrained sift in total, and the sifted
// decision graph beats the two-level jump overall.
func TestTable2Shape(t *testing.T) {
	prof := vm.HC11()
	rows, err := Table2(prof)
	if err != nil {
		t.Fatal(err)
	}
	var tn, ti, ts, tt int64
	for _, r := range rows {
		tn += r.Naive
		ti += r.SiftInputsFirst
		ts += r.SiftAfterSupport
		tt += r.TwoLevelJump
		if r.SiftAfterSupport > r.Naive {
			t.Errorf("%s: support-sift (%d) larger than naive (%d)",
				r.Module, r.SiftAfterSupport, r.Naive)
		}
	}
	if ts > tn {
		t.Errorf("total: support-sift %d > naive %d", ts, tn)
	}
	if ts > ti {
		t.Errorf("total: support-sift %d > inputs-first sift %d (relaxation must help)", ts, ti)
	}
	if ts >= tt {
		t.Errorf("total: support-sift %d should beat two-level jump %d", ts, tt)
	}
	_ = FormatTable2(prof, rows)
}

// TestTable3Shape reproduces the qualitative Table III result: the
// single-FSM Esterel strategy consumes the fewest CPU cycles over the
// workload (no communication or scheduling) but far more code than
// POLIS; the circuit-style ESTEREL_OPT code is bigger AND slower than
// POLIS's decision graphs.
func TestTable3Shape(t *testing.T) {
	prof := vm.R3K()
	rows, err := Table3(prof)
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table3Row{}
	for _, r := range rows {
		byName[r.Approach] = r
	}
	polis, v3, opt := byName["POLIS"], byName["ESTEREL"], byName["ESTEREL_OPT"]
	if polis.Approach == "" || v3.Approach == "" || opt.Approach == "" {
		t.Fatalf("missing rows: %+v", rows)
	}
	if v3.CodeBytes <= polis.CodeBytes {
		t.Errorf("single FSM code (%d B) should exceed POLIS (%d B)",
			v3.CodeBytes, polis.CodeBytes)
	}
	if v3.SimCycles >= polis.SimCycles {
		t.Errorf("single FSM cycles (%d) should undercut POLIS (%d): no RTOS overhead",
			v3.SimCycles, polis.SimCycles)
	}
	if opt.CodeBytes <= polis.CodeBytes {
		t.Errorf("circuit code (%d B) should exceed POLIS (%d B)",
			opt.CodeBytes, polis.CodeBytes)
	}
	if opt.SimCycles <= v3.SimCycles {
		t.Errorf("circuit cycles (%d) should exceed the decision-graph product (%d)",
			opt.SimCycles, v3.SimCycles)
	}
	_ = FormatTable3(prof, rows)
}

// TestShockShape reproduces Section V-B: the synthesized ROM and RAM
// come in well under the hand design's 32K/8K, and the latency budget
// holds.
func TestShockShape(t *testing.T) {
	prof := vm.HC11()
	rep, err := ShockAbsorberExperiment(prof)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SynthROM <= 0 || rep.SynthROM >= rep.HandROM {
		t.Errorf("synth ROM %d vs hand %d", rep.SynthROM, rep.HandROM)
	}
	if rep.SynthRAM <= 0 || rep.SynthRAM >= rep.HandRAM {
		t.Errorf("synth RAM %d vs hand %d", rep.SynthRAM, rep.HandRAM)
	}
	if !rep.LatencyOK {
		t.Errorf("latency %d exceeds budget %d", rep.MaxLat, rep.Budget)
	}
	if rep.OptimizedROM > rep.SynthROM || rep.OptimizedRAM > rep.SynthRAM {
		t.Errorf("copy optimisation must not grow the footprint: %+v", rep)
	}
	_ = FormatShock(prof, rep)
}

// TestAblationCollapse reproduces the paper's negative result: no
// module improves in size or worst-case cycles.
func TestAblationCollapse(t *testing.T) {
	prof := vm.HC11()
	rows, err := AblationCollapse(prof)
	if err != nil {
		t.Fatal(err)
	}
	// Collapsing destroys lazy evaluation: every constituent test of
	// a merged node is computed on every path, so the worst-case time
	// must not improve — the structural reason the paper dropped the
	// optimisation. Size may wobble a few percent either way (jump
	// tables versus branch chains); assert it stays marginal.
	var pb, cb, pc, cc int64
	for _, r := range rows {
		pb += r.PlainBytes
		cb += r.CollapsedB
		pc += r.PlainMaxCyc
		cc += r.CollapsedCyc
	}
	if cc < pc {
		t.Errorf("collapsing improved total worst-case cycles %d -> %d", pc, cc)
	}
	if delta := 100 * float64(cb-pb) / float64(pb); delta < -5 || delta > 25 {
		t.Errorf("collapsing changed total size by %.1f%% (%d -> %d), outside the expected band",
			delta, pb, cb)
	}
	_ = FormatCollapse(prof, rows)
}

func TestAblationRTOS(t *testing.T) {
	prof := vm.HC11()
	rep, err := AblationRTOS(prof)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GeneratedROM >= rep.CommercialROM {
		t.Errorf("generated RTOS ROM %d should undercut commercial %d",
			rep.GeneratedROM, rep.CommercialROM)
	}
	if rep.PollingLat <= rep.InterruptLat {
		t.Errorf("polling latency %d should exceed interrupt latency %d",
			rep.PollingLat, rep.InterruptLat)
	}
	if rep.PollingLat > rep.InterruptLat+rep.PollPeriod+1000 {
		t.Errorf("polling latency %d exceeds one period beyond interrupt %d",
			rep.PollingLat, rep.InterruptLat)
	}
	_ = FormatRTOS(prof, rep)
}

func TestAblationCopies(t *testing.T) {
	prof := vm.HC11()
	rows, err := AblationCopies(prof)
	if err != nil {
		t.Fatal(err)
	}
	var saved int64
	for _, r := range rows {
		if r.OptROM > r.FullROM || r.OptRAM > r.FullRAM || r.OptWCET > r.FullWCET {
			t.Errorf("%s: optimisation made something worse: %+v", r.Module, r)
		}
		saved += (r.FullROM - r.OptROM) + (r.FullRAM - r.OptRAM)
	}
	if saved <= 0 {
		t.Error("write-before-read analysis saved nothing across the design")
	}
	_ = FormatCopies(prof, rows)
}

func TestAblationFalsePaths(t *testing.T) {
	prof := vm.HC11()
	rows, err := AblationFalsePaths(prof)
	if err != nil {
		t.Fatal(err)
	}
	tightened := false
	for _, r := range rows {
		if r.PrunedMax > r.PlainMax {
			t.Errorf("%s: pruning increased the bound", r.Module)
		}
		if r.PrunedMax < r.PlainMax {
			tightened = true
		}
	}
	if !tightened {
		t.Error("no module's WCET bound tightened; the timer's exclusive tests should")
	}
	_ = FormatFalsePaths(prof, rows)
}

// TestPartitionSweep checks the co-design trade-off: moving front-end
// modules to hardware reduces CPU utilisation and software footprint
// monotonically, without breaking the latency budget.
func TestPartitionSweep(t *testing.T) {
	prof := vm.HC11()
	rows, err := PartitionSweep(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Utilization >= rows[i-1].Utilization {
			t.Errorf("utilization must fall as modules move to hw: %.3f -> %.3f",
				rows[i-1].Utilization, rows[i].Utilization)
		}
		if rows[i].SWCodeBytes >= rows[i-1].SWCodeBytes {
			t.Errorf("software footprint must fall: %d -> %d",
				rows[i-1].SWCodeBytes, rows[i].SWCodeBytes)
		}
	}
	for _, r := range rows {
		if r.MaxLatency < 0 || r.MaxLatency > 24000 {
			t.Errorf("%s: latency %d out of budget", r.Name, r.MaxLatency)
		}
	}
	_ = FormatPartition(prof, rows)
}

// TestAblationChaining: chaining the pipeline removes scheduler
// decisions and shortens the end-to-end latency.
func TestAblationChaining(t *testing.T) {
	prof := vm.HC11()
	rows, err := AblationChaining(prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows: %d", len(rows))
	}
	un, ch := rows[0], rows[1]
	if ch.ScheduleCalls >= un.ScheduleCalls {
		t.Errorf("chaining must cut scheduler calls: %d vs %d", ch.ScheduleCalls, un.ScheduleCalls)
	}
	if ch.MaxLatency >= un.MaxLatency {
		t.Errorf("chaining must cut latency: %d vs %d", ch.MaxLatency, un.MaxLatency)
	}
	if ch.BusyCycles >= un.BusyCycles {
		t.Errorf("chaining must cut busy cycles: %d vs %d", ch.BusyCycles, un.BusyCycles)
	}
	_ = FormatChaining(prof, rows)
}

// TestRTABoundsSimulatedResponses cross-checks the scheduling theory
// substrate against the executable RTOS model: for independent
// periodic tasks under preemptive rate-monotonic priorities, every
// simulated response time stays within the response-time-analysis
// bound (plus the delivery overheads RTA does not model).
func TestRTABoundsSimulatedResponses(t *testing.T) {
	n := cfsm.NewNetwork("rta")
	type job struct {
		in, out *cfsm.Signal
		m       *cfsm.CFSM
		period  int64
		cost    int64
	}
	mk := func(name string, period, cost int64) *job {
		in := n.NewSignal("in_"+name, true)
		out := n.NewSignal("out_"+name, true)
		m := cfsm.New(name)
		m.AttachInput(in)
		m.AttachOutput(out)
		p := m.Present(in)
		m.AddTransition([]cfsm.Cond{cfsm.On(p, 1)}, m.Emit(out))
		if err := n.Add(m); err != nil {
			t.Fatal(err)
		}
		return &job{in: in, out: out, m: m, period: period, cost: cost}
	}
	jobs := []*job{
		mk("fast", 4000, 600),
		mk("mid", 9000, 1500),
		mk("slow", 23000, 4000),
	}
	cfg := rtos.DefaultConfig()
	cfg.Policy = rtos.StaticPriority
	cfg.Preemptive = true
	// Rate-monotonic priorities: shorter period, higher priority.
	cfg.Priority = map[*cfsm.CFSM]int{jobs[0].m: 3, jobs[1].m: 2, jobs[2].m: 1}

	costs := map[*cfsm.CFSM]int64{}
	var specs []rtos.TaskSpec
	for _, j := range jobs {
		costs[j.m] = j.cost
		specs = append(specs, rtos.TaskSpec{
			Name: j.m.Name, WCET: j.cost, Period: j.period,
		})
	}
	// Charge each execution its scheduler decision and the interrupt
	// deliveries the analysis abstracts (its own arrival's ISR plus an
	// amortised share of the others that land in its window).
	rta := rtos.Schedulability(specs, rtos.ScheduleOverhead+2*rtos.ISROverhead)
	if !rta.Schedulable {
		t.Fatalf("task set should be schedulable: %+v", rta)
	}

	sys, err := rtos.NewSystem(n, cfg, func(m *cfsm.CFSM) (*rtos.Task, error) {
		mm := m
		return rtos.NewBehavioralTask(mm, func() int64 { return costs[mm] }), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	until := int64(400_000)
	type arrival struct {
		t int64
		j *job
	}
	var arrivals []arrival
	for _, j := range jobs {
		for ti := int64(1000); ti < until; ti += j.period {
			arrivals = append(arrivals, arrival{ti, j})
		}
	}
	sort.Slice(arrivals, func(i, k int) bool { return arrivals[i].t < arrivals[k].t })
	for _, a := range arrivals {
		if err := sys.Advance(a.t); err != nil {
			t.Fatal(err)
		}
		sys.EmitEnv(a.j.in, 0)
	}
	if err := sys.Advance(until); err != nil {
		t.Fatal(err)
	}
	// Per task: worst observed env->out latency vs RTA bound, with
	// slack for delivery jitter outside the periodic model.
	slack := int64(3 * rtos.ISROverhead)
	for i, j := range jobs {
		var worst int64
		for k, e := range sys.Trace {
			if e.Signal != j.in || e.From != "env" {
				continue
			}
			for _, f := range sys.Trace[k:] {
				if f.Signal == j.out && f.From == j.m.Name {
					if d := f.Time - e.Time; d > worst {
						worst = d
					}
					break
				}
			}
		}
		bound := rta.ResponseTimes[i] + slack
		if worst == 0 {
			t.Fatalf("%s never responded", j.m.Name)
		}
		if worst > bound {
			t.Errorf("%s: simulated worst response %d exceeds RTA bound %d (+%d slack)",
				j.m.Name, worst, rta.ResponseTimes[i], slack)
		}
	}
}

// TestAblationReduce is the paper-style acceptance check for the
// reduction engine: on the example designs at least one module (the
// dashboard timer, whose at50/at150 predicates are declared exclusive)
// must come out strictly smaller, with no-worse estimated ROM and
// worst-case cycles; and no module may ever grow under reduction.
func TestAblationReduce(t *testing.T) {
	prof := vm.HC11()
	rows, err := AblationReduce(prof)
	if err != nil {
		t.Fatal(err)
	}
	improved := false
	for _, r := range rows {
		if r.ReducedVerts > r.PlainVerts {
			t.Errorf("%s: reduction grew the graph %d -> %d vertices",
				r.Module, r.PlainVerts, r.ReducedVerts)
		}
		if r.ReducedVerts < r.PlainVerts &&
			r.EstReducedR <= r.EstPlainROM && r.EstReducedM <= r.EstPlainMax {
			improved = true
		}
		if r.Stats.Changed() && r.ReducedBytes > r.PlainBytes {
			t.Errorf("%s: reduction grew the measured code %d -> %d bytes",
				r.Module, r.PlainBytes, r.ReducedBytes)
		}
	}
	if !improved {
		t.Errorf("no module improved strictly with no-worse estimates:\n%s",
			FormatReduce(prof, rows))
	}
	_ = FormatReduce(prof, rows)
}
