package rtos

import (
	"math/bits"
	"strings"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/expr"
	"polis/internal/vm"
)

// chainNet builds env -> A -> B -> out with pure relay machines whose
// reactions cost the given cycles.
func chainNet() (*cfsm.Network, *cfsm.Signal, *cfsm.Signal, *cfsm.CFSM, *cfsm.CFSM) {
	n := cfsm.NewNetwork("chain")
	in := n.NewSignal("in", true)
	mid := n.NewSignal("mid", true)
	out := n.NewSignal("out", true)
	a := cfsm.New("A")
	a.AttachInput(in)
	a.AttachOutput(mid)
	pa := a.Present(in)
	a.AddTransition([]cfsm.Cond{cfsm.On(pa, 1)}, a.Emit(mid))
	b := cfsm.New("B")
	b.AttachInput(mid)
	b.AttachOutput(out)
	pb := b.Present(mid)
	b.AddTransition([]cfsm.Cond{cfsm.On(pb, 1)}, b.Emit(out))
	if err := n.Add(a); err != nil {
		panic(err)
	}
	if err := n.Add(b); err != nil {
		panic(err)
	}
	return n, in, out, a, b
}

// mkBehavioral returns a task factory with fixed execution cost.
func mkBehavioral(cost int64) func(m *cfsm.CFSM) (*Task, error) {
	return func(m *cfsm.CFSM) (*Task, error) {
		mm := m
		return NewBehavioralTask(mm, func() int64 { return cost }), nil
	}
}

func findEmission(trace []TraceEvent, sig *cfsm.Signal) (TraceEvent, bool) {
	for _, e := range trace {
		if e.Signal == sig && e.From != "env" && e.From != "poll" {
			return e, true
		}
	}
	return TraceEvent{}, false
}

func TestChainDelivery(t *testing.T) {
	n, in, out, _, _ := chainNet()
	cfg := DefaultConfig()
	sys, err := NewSystem(n, cfg, mkBehavioral(100))
	if err != nil {
		t.Fatal(err)
	}
	sys.EmitEnv(in, 0)
	if err := sys.Advance(10000); err != nil {
		t.Fatal(err)
	}
	e, ok := findEmission(sys.Trace, out)
	if !ok {
		t.Fatalf("out never emitted; trace: %+v", sys.Trace)
	}
	// Latency: ISR + schedule + A(100) + schedule + B(100).
	want := int64(ISROverhead + 2*ScheduleOverhead + 200)
	if e.Time != want {
		t.Errorf("out at %d cycles, want %d", e.Time, want)
	}
	if sys.ScheduleCalls != 2 || sys.Interrupts != 1 {
		t.Errorf("schedule=%d interrupts=%d", sys.ScheduleCalls, sys.Interrupts)
	}
}

func TestFreezeSemantics(t *testing.T) {
	// An event arriving while the task runs must not be consumed by
	// the in-flight execution but by the next one (Section IV-D).
	n := cfsm.NewNetwork("fz")
	x := n.NewSignal("x", true)
	o := n.NewSignal("o", false)
	m := cfsm.New("M")
	m.AttachInput(x)
	m.AttachOutput(o)
	cnt := m.AddState("cnt", 0, 0)
	p := m.Present(x)
	m.AddTransition([]cfsm.Cond{cfsm.On(p, 1)},
		m.Assign(cnt, expr.Add(expr.V("cnt"), expr.C(1))),
		m.EmitV(o, expr.V("cnt")))
	if err := n.Add(m); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	sys, err := NewSystem(n, cfg, mkBehavioral(500))
	if err != nil {
		t.Fatal(err)
	}
	sys.EmitEnv(x, 0)
	if err := sys.Advance(100); err != nil { // task now mid-flight
		t.Fatal(err)
	}
	sys.EmitEnv(x, 0) // lands in the freeze window
	if err := sys.Advance(50000); err != nil {
		t.Fatal(err)
	}
	task := sys.Tasks[0]
	if task.Executions != 2 {
		t.Fatalf("executions = %d, want 2 (second event preserved)", task.Executions)
	}
	if got := task.State(cnt); got != 2 {
		t.Errorf("cnt = %d, want 2", got)
	}
}

func TestOnePlaceBufferLoss(t *testing.T) {
	n := cfsm.NewNetwork("loss")
	x := n.NewSignal("x", true)
	m := cfsm.New("M")
	m.AttachInput(x)
	p := m.Present(x)
	st := m.AddState("s", 0, 0)
	m.AddTransition([]cfsm.Cond{cfsm.On(p, 1)}, m.Assign(st, expr.Add(expr.V("s"), expr.C(1))))
	if err := n.Add(m); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	sys, err := NewSystem(n, cfg, mkBehavioral(1000))
	if err != nil {
		t.Fatal(err)
	}
	// Three events in the freeze window: the buffer holds one.
	sys.EmitEnv(x, 0)
	_ = sys.Advance(100) // past ISR + schedule: the task is mid-flight
	sys.EmitEnv(x, 0)
	sys.EmitEnv(x, 0)
	sys.EmitEnv(x, 0)
	_ = sys.Advance(100000)
	task := sys.Tasks[0]
	if task.Lost != 2 {
		t.Errorf("lost = %d, want 2", task.Lost)
	}
	if task.State(st) != 2 {
		t.Errorf("s = %d, want 2 (first + one buffered)", task.State(st))
	}
}

func TestStaticPriorityOrder(t *testing.T) {
	n := cfsm.NewNetwork("prio")
	x := n.NewSignal("x", true)
	lo := n.NewSignal("lo", true)
	hi := n.NewSignal("hi", true)
	mLo := cfsm.New("low")
	mLo.AttachInput(x)
	mLo.AttachOutput(lo)
	pl := mLo.Present(x)
	mLo.AddTransition([]cfsm.Cond{cfsm.On(pl, 1)}, mLo.Emit(lo))
	mHi := cfsm.New("high")
	mHi.AttachInput(x)
	mHi.AttachOutput(hi)
	ph := mHi.Present(x)
	mHi.AddTransition([]cfsm.Cond{cfsm.On(ph, 1)}, mHi.Emit(hi))
	if err := n.Add(mLo); err != nil {
		t.Fatal(err)
	}
	if err := n.Add(mHi); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Policy = StaticPriority
	cfg.Priority = map[*cfsm.CFSM]int{mLo: 1, mHi: 5}
	sys, err := NewSystem(n, cfg, mkBehavioral(100))
	if err != nil {
		t.Fatal(err)
	}
	sys.EmitEnv(x, 0)
	if err := sys.Advance(10000); err != nil {
		t.Fatal(err)
	}
	eh, okH := findEmission(sys.Trace, hi)
	el, okL := findEmission(sys.Trace, lo)
	if !okH || !okL {
		t.Fatal("both tasks must run")
	}
	if eh.Time >= el.Time {
		t.Errorf("high-priority task finished at %d, low at %d", eh.Time, el.Time)
	}
}

func TestPreemption(t *testing.T) {
	n := cfsm.NewNetwork("pre")
	x := n.NewSignal("x", true)
	y := n.NewSignal("y", true)
	lo := n.NewSignal("lo", true)
	hi := n.NewSignal("hi", true)
	mLo := cfsm.New("low")
	mLo.AttachInput(x)
	mLo.AttachOutput(lo)
	pl := mLo.Present(x)
	mLo.AddTransition([]cfsm.Cond{cfsm.On(pl, 1)}, mLo.Emit(lo))
	mHi := cfsm.New("high")
	mHi.AttachInput(y)
	mHi.AttachOutput(hi)
	ph := mHi.Present(y)
	mHi.AddTransition([]cfsm.Cond{cfsm.On(ph, 1)}, mHi.Emit(hi))
	if err := n.Add(mLo); err != nil {
		t.Fatal(err)
	}
	if err := n.Add(mHi); err != nil {
		t.Fatal(err)
	}
	mk := func(m *cfsm.CFSM) (*Task, error) {
		cost := int64(100)
		if m.Name == "low" {
			cost = 10000
		}
		mm := m
		return NewBehavioralTask(mm, func() int64 { return cost }), nil
	}

	run := func(preempt bool) (hiT, loT int64) {
		cfg := DefaultConfig()
		cfg.Policy = StaticPriority
		cfg.Preemptive = preempt
		cfg.Priority = map[*cfsm.CFSM]int{mLo: 1, mHi: 5}
		sys, err := NewSystem(n, cfg, mk)
		if err != nil {
			t.Fatal(err)
		}
		sys.EmitEnv(x, 0) // long low task starts
		_ = sys.Advance(500)
		sys.EmitEnv(y, 0) // high arrives mid-flight
		_ = sys.Advance(200000)
		eh, ok1 := findEmission(sys.Trace, hi)
		el, ok2 := findEmission(sys.Trace, lo)
		if !ok1 || !ok2 {
			t.Fatal("both must complete")
		}
		return eh.Time, el.Time
	}
	hiPre, loPre := run(true)
	hiNo, _ := run(false)
	if hiPre >= hiNo {
		t.Errorf("preemption must shorten the high task's response: %d vs %d", hiPre, hiNo)
	}
	if hiPre >= loPre {
		t.Errorf("preemptive: high must finish before the preempted low resumes")
	}
}

func TestPollingVersusInterruptLatency(t *testing.T) {
	n, in, out, _, _ := chainNet()
	runWith := func(d Delivery) int64 {
		cfg := DefaultConfig()
		cfg.Deliver = map[*cfsm.Signal]Delivery{in: d}
		sys, err := NewSystem(n, cfg, mkBehavioral(100))
		if err != nil {
			t.Fatal(err)
		}
		_ = sys.Advance(100) // event arrives between poll ticks
		sys.EmitEnv(in, 0)
		_ = sys.Advance(100000)
		e, ok := findEmission(sys.Trace, out)
		if !ok {
			t.Fatal("no output")
		}
		return e.Time - 100
	}
	intLat := runWith(Interrupt)
	polLat := runWith(Polling)
	if polLat <= intLat {
		t.Errorf("polling latency (%d) must exceed interrupt latency (%d)", polLat, intLat)
	}
	// Polling adds up to one period; with the event at t=100 and the
	// first poll at PollPeriod, the delivery delay is ~PollPeriod-100.
	if polLat < PollPeriod-200 {
		t.Errorf("polling latency %d implausibly low", polLat)
	}
}

func TestInISRImmediateAttention(t *testing.T) {
	n, in, out, a, _ := chainNet()
	_ = a
	cfg := DefaultConfig()
	cfg.InISR = map[*cfsm.Signal]bool{in: true}
	sys, err := NewSystem(n, cfg, mkBehavioral(100))
	if err != nil {
		t.Fatal(err)
	}
	// Keep the CPU busy with B's machine? Instead check that A runs
	// without a scheduler call: only B's execution needs one.
	sys.EmitEnv(in, 0)
	_ = sys.Advance(100000)
	if _, ok := findEmission(sys.Trace, out); !ok {
		t.Fatal("no output")
	}
	if sys.ScheduleCalls != 1 {
		t.Errorf("expected 1 scheduler call (A ran inside the ISR), got %d", sys.ScheduleCalls)
	}
}

func TestHardwarePartition(t *testing.T) {
	n, in, out, a, _ := chainNet()
	cfg := DefaultConfig()
	cfg.HW = map[*cfsm.CFSM]bool{a: true}
	sys, err := NewSystem(n, cfg, mkBehavioral(100))
	if err != nil {
		t.Fatal(err)
	}
	sys.EmitEnv(in, 0)
	if err := sys.Advance(100000); err != nil {
		t.Fatal(err)
	}
	e, ok := findEmission(sys.Trace, out)
	if !ok {
		t.Fatal("no output")
	}
	// A reacts in hardware after HWDelay cycles; its emission
	// interrupts the CPU for B.
	want := int64(HWDelay + ISROverhead + ScheduleOverhead + 100)
	if e.Time != want {
		t.Errorf("latency %d, want %d", e.Time, want)
	}
	if sys.Interrupts != 1 {
		t.Errorf("interrupts = %d, want 1 (hw->sw)", sys.Interrupts)
	}
}

func TestRoundRobinFairness(t *testing.T) {
	n := cfsm.NewNetwork("rr")
	x := n.NewSignal("x", true)
	var outs []*cfsm.Signal
	var ms []*cfsm.CFSM
	for i := 0; i < 3; i++ {
		o := n.NewSignal(string(rune('a'+i)), true)
		outs = append(outs, o)
		m := cfsm.New("m" + string(rune('0'+i)))
		m.AttachInput(x)
		m.AttachOutput(o)
		p := m.Present(x)
		m.AddTransition([]cfsm.Cond{cfsm.On(p, 1)}, m.Emit(o))
		if err := n.Add(m); err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	cfg := DefaultConfig()
	sys, err := NewSystem(n, cfg, mkBehavioral(50))
	if err != nil {
		t.Fatal(err)
	}
	sys.EmitEnv(x, 0)
	_ = sys.Advance(100000)
	var times []int64
	for _, o := range outs {
		e, ok := findEmission(sys.Trace, o)
		if !ok {
			t.Fatalf("output %s missing", o.Name)
		}
		times = append(times, e.Time)
	}
	if !(times[0] < times[1] && times[1] < times[2]) {
		t.Errorf("round-robin order violated: %v", times)
	}
}

func TestSchedulabilityLLAndRTA(t *testing.T) {
	// Classic example: three tasks, U ~ 0.76 < LL bound for n=3 is
	// 0.7797 -> schedulable by bound.
	specs := []TaskSpec{
		{Name: "t1", WCET: 20, Period: 100},
		{Name: "t2", WCET: 40, Period: 150},
		{Name: "t3", WCET: 100, Period: 350},
	}
	rep := Schedulability(specs, 0)
	if !rep.ByBound {
		t.Errorf("U=%.3f bound=%.3f: should pass the LL test", rep.Utilization, rep.LLBound)
	}
	if !rep.Schedulable {
		t.Error("response-time analysis must also pass")
	}
	// Overload: U > 1 must fail.
	bad := []TaskSpec{
		{Name: "t1", WCET: 60, Period: 100},
		{Name: "t2", WCET: 60, Period: 100},
	}
	rep2 := Schedulability(bad, 0)
	if rep2.Schedulable {
		t.Error("overloaded set must be unschedulable")
	}
	// The RTA can prove sets beyond the LL bound schedulable.
	edge := []TaskSpec{
		{Name: "t1", WCET: 50, Period: 100},
		{Name: "t2", WCET: 50, Period: 200},
		{Name: "t3", WCET: 100, Period: 400},
	}
	rep3 := Schedulability(edge, 0)
	if rep3.ByBound {
		t.Errorf("U=%.3f should exceed the LL bound %.3f", rep3.Utilization, rep3.LLBound)
	}
	if !rep3.Schedulable {
		t.Error("harmonic set must pass response-time analysis")
	}
}

func TestSizeModel(t *testing.T) {
	n, _, _, _, _ := chainNet()
	cfg := DefaultConfig()
	prof := vm.HC11()
	gen := SizeEstimate(prof, n, cfg)
	com := CommercialSizeEstimate(prof, n, cfg)
	if gen.CodeBytes <= 0 || gen.DataBytes <= 0 {
		t.Fatalf("degenerate size: %+v", gen)
	}
	if gen.CodeBytes >= com.CodeBytes {
		t.Errorf("generated RTOS (%d B) must be smaller than commercial (%d B)",
			gen.CodeBytes, com.CodeBytes)
	}
	if gen.DataBytes >= com.DataBytes {
		t.Errorf("generated RTOS RAM (%d B) must be smaller than commercial (%d B)",
			gen.DataBytes, com.DataBytes)
	}
	// Priority/preemption adds code.
	cfg2 := cfg
	cfg2.Policy = StaticPriority
	cfg2.Preemptive = true
	gen2 := SizeEstimate(prof, n, cfg2)
	if gen2.CodeBytes <= gen.CodeBytes {
		t.Error("preemptive priority scheduler must cost more code")
	}
}

func TestGenerateC(t *testing.T) {
	n, in, out, a, b := chainNet()
	cfg := DefaultConfig()
	sigID := map[*cfsm.Signal]int{}
	for i, s := range n.Signals {
		sigID[s] = i
	}
	src := GenerateC(n, cfg, sigID)
	for _, needle := range []string{
		"polis_scheduler", "run_task", "polis_emit_value", "polis_present",
		"#define SIG_in", "A_react();", "B_react();", "isr_in", "rr",
	} {
		if !strings.Contains(src, needle) {
			t.Errorf("generated C missing %q", needle)
		}
	}
	_ = in
	_ = out
	_ = a
	_ = b

	cfg.Policy = StaticPriority
	cfg.Priority = map[*cfsm.CFSM]int{a: 2, b: 1}
	src2 := GenerateC(n, cfg, sigID)
	if !strings.Contains(src2, "prio 2") {
		t.Error("priority scheduler not rendered")
	}
	cfg.Deliver = map[*cfsm.Signal]Delivery{in: Polling}
	src3 := GenerateC(n, cfg, sigID)
	if !strings.Contains(src3, "poll_routine") {
		t.Error("poll routine not rendered")
	}
}

func TestConfigValidate(t *testing.T) {
	n, in, _, _, _ := chainNet()
	cfg := DefaultConfig()
	cfg.Preemptive = true
	if err := cfg.Validate(n); err == nil {
		t.Error("preemptive round-robin must be rejected")
	}
	cfg = DefaultConfig()
	cfg.InISR = map[*cfsm.Signal]bool{in: true}
	cfg.Deliver = map[*cfsm.Signal]Delivery{in: Polling}
	if err := cfg.Validate(n); err == nil {
		t.Error("InISR with polling delivery must be rejected")
	}
}

// TestConfigValidateReservedNames rejects a machine named after a
// trace source, whose emissions TraceEvent.Emitted would drop.
func TestConfigValidateReservedNames(t *testing.T) {
	for _, name := range []string{FromEnv, fromPoll} {
		n, _, _, a, _ := chainNet()
		a.Name = name
		if _, err := NewSystem(n, DefaultConfig(), mkBehavioral(100)); err == nil {
			t.Errorf("a machine named %q must be rejected", name)
		}
	}
	n, _, _, a, _ := chainNet()
	a.Name = "envelope"
	if _, err := NewSystem(n, DefaultConfig(), mkBehavioral(100)); err != nil {
		t.Errorf("a machine named %q: %v", a.Name, err)
	}
}

func TestTaskChaining(t *testing.T) {
	run := func(chain bool) (int64, int64) {
		n, in, out, a, b := chainNet()
		cfg := DefaultConfig()
		if chain {
			cfg.Chains = [][]*cfsm.CFSM{{a, b}}
		}
		sys, err := NewSystem(n, cfg, mkBehavioral(100))
		if err != nil {
			t.Fatal(err)
		}
		sys.EmitEnv(in, 0)
		if err := sys.Advance(100000); err != nil {
			t.Fatal(err)
		}
		e, ok := findEmission(sys.Trace, out)
		if !ok {
			t.Fatal("no output")
		}
		return e.Time, sys.ScheduleCalls
	}
	latPlain, schedPlain := run(false)
	latChain, schedChain := run(true)
	if schedChain >= schedPlain {
		t.Errorf("chaining must cut scheduler calls: %d vs %d", schedChain, schedPlain)
	}
	if latChain >= latPlain {
		t.Errorf("chaining must cut latency: %d vs %d", latChain, latPlain)
	}
	// Exactly one scheduling overhead removed.
	if latPlain-latChain != ScheduleOverhead {
		t.Errorf("latency gain %d, want one scheduling overhead %d",
			latPlain-latChain, ScheduleOverhead)
	}
}

func TestChainValidate(t *testing.T) {
	n, _, _, a, b := chainNet()
	cfg := DefaultConfig()
	cfg.Chains = [][]*cfsm.CFSM{{a, b}, {b}}
	if err := cfg.Validate(n); err == nil {
		t.Error("machine in two chains must be rejected")
	}
	cfg = DefaultConfig()
	cfg.HW = map[*cfsm.CFSM]bool{a: true}
	cfg.Chains = [][]*cfsm.CFSM{{a, b}}
	if err := cfg.Validate(n); err == nil {
		t.Error("chained hardware machine must be rejected")
	}
}

func TestGenerateCChains(t *testing.T) {
	n, _, _, a, b := chainNet()
	cfg := DefaultConfig()
	cfg.Chains = [][]*cfsm.CFSM{{a, b}}
	sigID := map[*cfsm.Signal]int{}
	for i, s := range n.Signals {
		sigID[s] = i
	}
	src := GenerateC(n, cfg, sigID)
	if !strings.Contains(src, "chained: A -> B") {
		t.Errorf("chained dispatch missing from generated C:\n%s", src)
	}
}

func TestUtilizationIdle(t *testing.T) {
	n, _, _, _, _ := chainNet()
	sys, err := NewSystem(n, DefaultConfig(), mkBehavioral(100))
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Advance(10000); err != nil {
		t.Fatal(err)
	}
	if u := sys.Utilization(); u != 0 {
		t.Errorf("idle system utilization %f", u)
	}
}

func TestAdvanceBackwardsRejected(t *testing.T) {
	n, _, _, _, _ := chainNet()
	sys, err := NewSystem(n, DefaultConfig(), mkBehavioral(100))
	if err != nil {
		t.Fatal(err)
	}
	_ = sys.Advance(1000)
	if err := sys.Advance(500); err == nil {
		t.Error("time going backwards must be rejected")
	}
}

// traceCapProbe counts the trace reallocations it sees: the trace's
// capacity changes only when it is reallocated. In the chain network at
// most two events are recorded between two observations, so a full
// trace that grows by more than two slots is seen at every growth.
type traceCapProbe struct {
	sys         *System
	last, grows int
}

func (p *traceCapProbe) see() {
	if c := cap(p.sys.Trace); c != p.last {
		p.grows++
		p.last = c
	}
}

func (p *traceCapProbe) TaskPosted(*Task, *cfsm.Signal, int64, int64, bool) { p.see() }
func (p *traceCapProbe) TaskBegan(*Task, cfsm.Snapshot, int64)              { p.see() }
func (p *traceCapProbe) TaskFinished(*Task, cfsm.Reaction, int64, int64)    { p.see() }

// TestTraceGrowsByDoubling drives a system far past its trace
// reservation: every event must survive in order (against a run whose
// reservation never fills), and the trace must be reallocated at most
// ceil(log2(final/initial)) times.
func TestTraceGrowsByDoubling(t *testing.T) {
	const rounds, reserve = 10_000, 1000
	run := func(capacity int) (*System, int) {
		n, in, _, _, _ := chainNet()
		sys, err := NewSystem(n, DefaultConfig(), mkBehavioral(100))
		if err != nil {
			t.Fatal(err)
		}
		sys.Trace = make([]TraceEvent, 0, capacity)
		probe := &traceCapProbe{sys: sys, last: capacity}
		sys.Probe = probe
		for i := 0; i <= rounds; i++ {
			if err := sys.Advance(int64(i) * 1000); err != nil {
				t.Fatal(err)
			}
			probe.see()
			if i == rounds {
				break
			}
			if err := sys.EmitEnv(in, int64(i)); err != nil {
				t.Fatal(err)
			}
			probe.see()
		}
		return sys, probe.grows
	}
	want, grows := run(3 * rounds)
	if grows != 0 || len(want.Trace) != 3*rounds {
		t.Fatalf("reference run: %d events, %d growths; want %d events, none", len(want.Trace), grows, 3*rounds)
	}
	got, grows := run(reserve)
	if len(got.Trace) != len(want.Trace) {
		t.Fatalf("%d events, want %d", len(got.Trace), len(want.Trace))
	}
	for i, w := range want.Trace {
		g := got.Trace[i]
		if g.Time != w.Time || g.Signal.Name != w.Signal.Name || g.Value != w.Value || g.From != w.From {
			t.Fatalf("event %d = %+v, want %+v", i, g, w)
		}
	}
	bound := bits.Len(uint((len(got.Trace) - 1) / reserve)) // ceil(log2(final/initial))
	if grows == 0 || grows > bound {
		t.Errorf("trace reallocated %d times growing %d -> %d events, want 1..%d",
			grows, reserve, len(got.Trace), bound)
	}
}
