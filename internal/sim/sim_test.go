package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/designs"
	"polis/internal/expr"
	"polis/internal/pipeline"
	"polis/internal/profile"
	"polis/internal/rtos"
	"polis/internal/vm"
)

// scalerNet: env sample -> scaler (doubles) -> limiter (clamps to 10)
// -> out.
func scalerNet() (*cfsm.Network, *cfsm.Signal, *cfsm.Signal) {
	n := cfsm.NewNetwork("scaler")
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

func defaultOpts(mode Mode) Options {
	return Options{
		Cfg:     rtos.DefaultConfig(),
		Mode:    mode,
		Profile: vm.HC11(),
	}
}

func outValues(res *Result, out *cfsm.Signal) []int64 {
	var vals []int64
	for _, e := range res.Trace {
		if e.Signal == out && e.From != "env" {
			vals = append(vals, e.Value)
		}
	}
	return vals
}

func TestRunBehavioralAndVMAgree(t *testing.T) {
	n, sample, out := scalerNet()
	stim := PeriodicStimuli(sample, 1000, 5000, 60000, func(i int) int64 {
		return int64(i % 9)
	})
	rb, err := Run(n, stim, 200000, defaultOpts(Behavioral))
	if err != nil {
		t.Fatal(err)
	}
	rv, err := Run(n, stim, 200000, defaultOpts(VMExact))
	if err != nil {
		t.Fatal(err)
	}
	vb := outValues(rb, out)
	vv := outValues(rv, out)
	if len(vb) == 0 {
		t.Fatal("no outputs in behavioral run")
	}
	if len(vb) != len(vv) {
		t.Fatalf("output counts differ: %d vs %d", len(vb), len(vv))
	}
	for i := range vb {
		if vb[i] != vv[i] {
			t.Fatalf("output %d differs: %d vs %d", i, vb[i], vv[i])
		}
		want := int64((i % 9) * 2)
		if want > 10 {
			want = 10
		}
		if vb[i] != want {
			t.Fatalf("output %d = %d, want %d", i, vb[i], want)
		}
	}
}

func TestLatencies(t *testing.T) {
	n, sample, out := scalerNet()
	stim := PeriodicStimuli(sample, 1000, 10000, 50000, nil)
	res, err := Run(n, stim, 200000, defaultOpts(VMExact))
	if err != nil {
		t.Fatal(err)
	}
	lats := Latencies(res.Trace, sample, out)
	if len(lats) != len(stim) {
		t.Fatalf("latency samples %d, want %d", len(lats), len(stim))
	}
	max := MaxLatency(res.Trace, sample, out)
	for _, l := range lats {
		if l <= 0 || l > max {
			t.Errorf("latency %d out of range (max %d)", l, max)
		}
	}
	if max > 4000 {
		t.Errorf("end-to-end latency %d implausibly high for an idle system", max)
	}
}

// TestPollEchoNotAnEmission: under Polling delivery, a hardware
// machine's output that a software task reads is recorded twice, as
// the machine's emission and as the poll routine's later echo.
// CountEmissions counts it once, and Latencies pairs each stimulus
// with the machine's record, never with the echo.
func TestPollEchoNotAnEmission(t *testing.T) {
	n, sample, _ := scalerNet()
	scaler := n.Machines[0]
	mid := scaler.Outputs[0]
	opt := defaultOpts(VMExact)
	opt.Cfg.HW = map[*cfsm.CFSM]bool{scaler: true}
	opt.Cfg.Deliver = map[*cfsm.Signal]rtos.Delivery{mid: rtos.Polling}
	stim := PeriodicStimuli(sample, 1000, 20000, 100000, func(i int) int64 { return int64(i) })
	res, err := Run(n, stim, 200000, opt)
	if err != nil {
		t.Fatal(err)
	}
	var records, echoes []rtos.TraceEvent
	for _, e := range res.Trace {
		switch {
		case e.Signal != mid:
		case e.Emitted():
			records = append(records, e)
		default:
			echoes = append(echoes, e)
		}
	}
	if len(records) != len(stim) || len(echoes) != len(stim) {
		t.Fatalf("%d records and %d echoes of mid, want %d each", len(records), len(echoes), len(stim))
	}
	for i, r := range records {
		if echoes[i].Time <= r.Time || echoes[i].Value != r.Value {
			t.Fatalf("echo %+v does not follow record %+v", echoes[i], r)
		}
	}
	if got := CountEmissions(res.Trace, mid); got != len(stim) {
		t.Errorf("CountEmissions(mid) = %d, want %d", got, len(stim))
	}
	lats := Latencies(res.Trace, sample, mid)
	if len(lats) != len(stim) {
		t.Fatalf("%d latencies, want %d", len(lats), len(stim))
	}
	for i, l := range lats {
		if want := records[i].Time - stim[i].Time; l != want {
			t.Errorf("latency %d = %d, want %d (to the machine's record)", i, l, want)
		}
	}
}

func TestOverloadLosesEvents(t *testing.T) {
	n, sample, out := scalerNet()
	// Events far faster than the processing chain can absorb.
	stim := PeriodicStimuli(sample, 10, 20, 20000, nil)
	res, err := Run(n, stim, 100000, defaultOpts(VMExact))
	if err != nil {
		t.Fatal(err)
	}
	outs := CountEmissions(res.Trace, out)
	if outs >= len(stim) {
		t.Errorf("overload should drop events: %d outputs for %d inputs", outs, len(stim))
	}
	var lost int64
	for _, task := range res.System.Tasks {
		lost += task.Lost
	}
	if lost == 0 {
		t.Error("one-place buffers must record losses under overload")
	}
}

// TestVMModeReportsFootprint pins the simulator to the synthesis
// pipeline under every option that shapes a task: for the default
// flow, reduction and a specialization profile captured by a
// behavioural run of the dashboard, a VMExact run's footprint is the
// sum of the pipeline artifacts' code and data bytes, a Behavioral
// run's is the sum of their estimates, and a Behavioral run charges
// each machine its artifact's worst-case estimate. Every option must
// change the footprint or a charge, so a simulator that dropped one
// would be caught.
func TestVMModeReportsFootprint(t *testing.T) {
	d := designs.NewDashboard()
	n := d.Net
	var stim []Stimulus
	stim = append(stim, PeriodicStimuli(d.Tick, 100, 1000, 60000, nil)...)
	stim = append(stim, PeriodicStimuli(d.FuelSample, 300, 2000, 60000, func(i int) int64 {
		return int64(60 + i%3)
	})...)
	stim = append(stim, PeriodicStimuli(d.WheelPulse, 500, 1500, 60000, func(i int) int64 {
		return int64(40 + i%5)
	})...)
	stim = append(stim, Stimulus{Time: 50, Signal: d.KeyOn}, Stimulus{Time: 7000, Signal: d.BeltOn})
	col := profile.NewCollector()
	if _, err := Run(n, stim, 80000, Options{Cfg: rtos.DefaultConfig(), Probe: col}); err != nil {
		t.Fatal(err)
	}
	captured := col.Profile()

	type outcome struct {
		code, data int64
		costs      string
	}
	var base outcome
	for i, c := range []struct {
		name string
		opt  pipeline.Options
	}{
		{"default", pipeline.Options{}},
		{"reduce", pipeline.Options{Reduce: true}},
		{"specialize", pipeline.Options{Profile: captured}},
	} {
		arts, err := pipeline.Run(n, c.opt, pipeline.Config{Jobs: 1})
		if err != nil {
			t.Fatal(err)
		}
		opt := Options{
			Cfg: rtos.DefaultConfig(), Mode: VMExact,
			Reduce: c.opt.Reduce, Specialize: c.opt.Profile,
		}
		res, err := Run(n, stim[:1], 1000, opt)
		if err != nil {
			t.Fatal(err)
		}
		costs, err := BehavioralCosts(n, opt)
		if err != nil {
			t.Fatal(err)
		}
		opt.Mode = Behavioral
		bres, err := Run(n, stim[:1], 1000, opt)
		if err != nil {
			t.Fatal(err)
		}
		target := pipeline.DefaultTarget()
		var got outcome
		var estCode, estData int64
		for _, a := range arts {
			got.code += int64(a.CodeSize)
			got.data += int64(target.DataSize(a.Program))
			estCode += a.Estimate.CodeBytes
			estData += a.Estimate.DataBytes
			got.costs += fmt.Sprintf(" %d", a.Estimate.MaxCycles)
			if costs[a.CFSM] != a.Estimate.MaxCycles {
				t.Errorf("%s/%s: behavioural cost %d, pipeline estimate %d",
					c.name, a.Module, costs[a.CFSM], a.Estimate.MaxCycles)
			}
		}
		if res.CodeBytes != got.code || res.DataBytes != got.data {
			t.Errorf("%s: VMExact footprint %d/%d B, pipeline artifacts %d/%d B",
				c.name, res.CodeBytes, res.DataBytes, got.code, got.data)
		}
		if bres.CodeBytes != estCode || bres.DataBytes != estData {
			t.Errorf("%s: Behavioral footprint %d/%d B, pipeline estimates %d/%d B",
				c.name, bres.CodeBytes, bres.DataBytes, estCode, estData)
		}
		if i == 0 {
			base = got
		} else if got == base {
			t.Errorf("%s: same footprint and charges as %+v; the case exercises nothing", c.name, base)
		}
	}
}

// TestBuildVMTaskDefaultProfile: BuildVMTask resolves a nil Profile
// to the pipeline's default target, as Run does.
func TestBuildVMTaskDefaultProfile(t *testing.T) {
	hc11, err := vm.Target("hc11")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range designs.NewDashboard().Net.Machines {
		_, code, data, err := BuildVMTask(m, Options{Mode: VMExact})
		if err != nil {
			t.Fatal(err)
		}
		_, wantCode, wantData, err := BuildVMTask(m, Options{Mode: VMExact, Profile: hc11})
		if err != nil {
			t.Fatal(err)
		}
		if code != wantCode || data != wantData {
			t.Errorf("%s: nil profile gives %d/%d B, hc11 %d/%d B", m.Name, code, data, wantCode, wantData)
		}
	}
}

func TestUtilizationGrowsWithLoad(t *testing.T) {
	n, sample, _ := scalerNet()
	slow, err := Run(n, PeriodicStimuli(sample, 1000, 50000, 400000, nil), 500000, defaultOpts(VMExact))
	if err != nil {
		t.Fatal(err)
	}
	fast, err := Run(n, PeriodicStimuli(sample, 1000, 5000, 400000, nil), 500000, defaultOpts(VMExact))
	if err != nil {
		t.Fatal(err)
	}
	if fast.System.Utilization() <= slow.System.Utilization() {
		t.Errorf("utilization must grow with input rate: %.4f vs %.4f",
			fast.System.Utilization(), slow.System.Utilization())
	}
}

func TestPeriodicStimuli(t *testing.T) {
	n, sample, _ := scalerNet()
	_ = n
	st := PeriodicStimuli(sample, 0, 100, 1000, func(i int) int64 { return int64(i) })
	if len(st) != 11 {
		t.Fatalf("stimulus count %d, want 11", len(st))
	}
	if st[3].Time != 300 || st[3].Value != 3 {
		t.Errorf("stimulus 3 wrong: %+v", st[3])
	}
}

func TestWriteTraceCSV(t *testing.T) {
	n, sample, _ := scalerNet()
	res, err := Run(n, PeriodicStimuli(sample, 1000, 20000, 60000, nil), 100000, defaultOpts(Behavioral))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTraceCSV(&buf, res.Trace); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "time,signal,value,from\n") {
		t.Errorf("csv header wrong: %q", out[:40])
	}
	if !strings.Contains(out, "sample") || !strings.Contains(out, "out") {
		t.Error("csv missing signals")
	}
	lines := strings.Count(out, "\n")
	if lines < len(res.Trace) {
		t.Errorf("csv rows %d < trace events %d", lines, len(res.Trace))
	}
}

// TestRunLeavesStimuliUntouched: Run replays an unsorted stimulus slice
// in time order (ties in slice order) without reordering the caller's
// slice, in single and partitioned runs, and ignores stimuli after
// until.
func TestRunLeavesStimuliUntouched(t *testing.T) {
	n, sample, out := scalerNet()
	stim := []Stimulus{
		{Time: 9000, Signal: sample, Value: 4},
		{Time: 1000, Signal: sample, Value: 1},
		{Time: 90_000, Signal: sample, Value: 9}, // after until
		{Time: 5000, Signal: sample, Value: 3},
		{Time: 1000, Signal: sample, Value: 2},
	}
	orig := append([]Stimulus(nil), stim...)
	sorted := []Stimulus{orig[1], orig[4], orig[3], orig[0]}
	for _, part := range []bool{false, true} {
		opt := defaultOpts(Behavioral)
		opt.Partition = part
		got, err := Run(n, stim, 50_000, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i := range stim {
			if stim[i] != orig[i] {
				t.Fatalf("partition=%v: stimuli[%d] = %+v after Run, was %+v", part, i, stim[i], orig[i])
			}
		}
		want, err := Run(n, sorted, 50_000, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Trace) != len(want.Trace) {
			t.Fatalf("partition=%v: %d trace events, %d from sorted input", part, len(got.Trace), len(want.Trace))
		}
		for i := range got.Trace {
			if got.Trace[i] != want.Trace[i] {
				t.Fatalf("partition=%v: trace[%d] = %+v, %+v from sorted input", part, i, got.Trace[i], want.Trace[i])
			}
		}
		if vals := outValues(got, out); len(vals) != 3 {
			t.Errorf("partition=%v: out values %v, want the 3 reactions up to until", part, vals)
		}
	}
}
