package designs

import (
	"testing"

	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/rtos"
	"polis/internal/sgraph"
	"polis/internal/sim"
	"polis/internal/vm"
)

func TestDashboardValid(t *testing.T) {
	d := NewDashboard()
	if err := d.Net.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(d.Modules()) != 9 {
		t.Errorf("module count %d", len(d.Modules()))
	}
	for _, m := range d.Modules() {
		if err := m.CheckDeterministic(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	// The belt <-> timer feedback loop is legal in the GALS model
	// (events are buffered); only the synchronous composition needs
	// acyclicity, so the full dashboard must NOT topo-order.
	if _, err := d.Net.TopoOrder(); err == nil {
		t.Error("expected the belt/timer feedback loop to be reported")
	}
}

func TestDashboardModulesSynthesize(t *testing.T) {
	d := NewDashboard()
	for _, m := range d.Modules() {
		r, err := cfsm.BuildReactive(m)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		g, err := sgraph.Build(r, sgraph.OrderSiftAfterSupport)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if err := g.CheckWellFormed(); err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		p, err := codegen.Assemble(g, codegen.NewSignalMap(m), codegen.Options{})
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		if vm.HC11().CodeSize(p) < 8 {
			t.Errorf("%s: implausibly small routine", m.Name)
		}
	}
}

func TestBeltScenario(t *testing.T) {
	d := NewDashboard()
	cfg := rtos.DefaultConfig()
	opts := sim.Options{
		Cfg:     cfg,
		Mode:    sim.VMExact,
		Profile: vm.HC11(),
	}
	// Key on at 1000; ticks every 10k cycles (100 ms at calibration
	// scale); no belt: alarm must sound after 50 ticks and stop after
	// 150.
	stim := []sim.Stimulus{{Time: 1000, Signal: d.KeyOn}}
	stim = append(stim, sim.PeriodicStimuli(d.Tick, 2000, 10000, 3000000, nil)...)
	res, err := sim.Run(d.Net, stim, 3200000, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.CountEmissions(res.Trace, d.AlarmOn); got != 1 {
		t.Errorf("alarm_on emitted %d times, want 1", got)
	}
	if got := sim.CountEmissions(res.Trace, d.AlarmOff); got != 1 {
		t.Errorf("alarm_off emitted %d times, want 1", got)
	}
	var onAt, offAt int64 = -1, -1
	for _, e := range res.Trace {
		if e.Signal == d.AlarmOn && e.From == "belt" {
			onAt = e.Time
		}
		if e.Signal == d.AlarmOff && e.From == "belt" {
			offAt = e.Time
		}
	}
	if onAt < 0 || offAt < onAt {
		t.Fatalf("alarm times: on=%d off=%d", onAt, offAt)
	}
	// ~100 ticks between on and off (1,000,000 cycles).
	if d := offAt - onAt; d < 900000 || d > 1100000 {
		t.Errorf("alarm duration %d cycles, want ~1000000", d)
	}
}

func TestBeltFastenedSilencesAlarm(t *testing.T) {
	d := NewDashboard()
	opts := sim.Options{
		Cfg:     rtos.DefaultConfig(),
		Mode:    sim.Behavioral,
		Profile: vm.HC11(),
	}
	stim := []sim.Stimulus{
		{Time: 1000, Signal: d.KeyOn},
		{Time: 50000, Signal: d.BeltOn}, // fastened before 5 s
	}
	stim = append(stim, sim.PeriodicStimuli(d.Tick, 2000, 10000, 2000000, nil)...)
	res, err := sim.Run(d.Net, stim, 2100000, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.CountEmissions(res.Trace, d.AlarmOn); got != 0 {
		t.Errorf("alarm must stay silent, emitted %d", got)
	}
}

func TestSpeedChain(t *testing.T) {
	d := NewDashboard()
	opts := sim.Options{
		Cfg:     rtos.DefaultConfig(),
		Mode:    sim.VMExact,
		Profile: vm.HC11(),
	}
	// Wheel period 65 ms -> raw speed ~ 99 km/h; steady state of the
	// smoothing filter converges to ~99; duty ~ 99*255/220 ~ 114.
	stim := sim.PeriodicStimuli(d.WheelPulse, 1000, 20000, 400000,
		func(int) int64 { return 65 })
	res, err := sim.Run(d.Net, stim, 500000, opts)
	if err != nil {
		t.Fatal(err)
	}
	var lastDuty int64 = -1
	for _, e := range res.Trace {
		if e.Signal == d.SpeedDuty {
			lastDuty = e.Value
		}
	}
	if lastDuty < 100 || lastDuty > 120 {
		t.Errorf("speed duty %d, want ~114", lastDuty)
	}
}

func TestShockAbsorberValid(t *testing.T) {
	s := NewShockAbsorber()
	if err := s.Net.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, m := range s.Modules() {
		if err := m.CheckDeterministic(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	if _, err := s.Net.TopoOrder(); err != nil {
		t.Fatal(err)
	}
}

func TestShockAbsorberChainAndLatency(t *testing.T) {
	s := NewShockAbsorber()
	opts := sim.Options{
		Cfg:     rtos.DefaultConfig(),
		Mode:    sim.VMExact,
		Profile: vm.HC11(),
	}
	var stim []sim.Stimulus
	// Rough road: large acceleration samples every 2 ms (4000 cycles).
	stim = append(stim, sim.PeriodicStimuli(s.AccelSample, 1000, 4000, 900000,
		func(i int) int64 { return int64(80 + (i%5)*10) })...)
	stim = append(stim, sim.Stimulus{Time: 500, Signal: s.SpeedSample, Value: 130})
	res, err := sim.Run(s.Net, stim, 1000000, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.CountEmissions(res.Trace, s.Solenoid); got == 0 {
		t.Fatal("no solenoid commands")
	}
	// Hard command must be issued on a very rough road at speed.
	var maxCmd int64 = -1
	for _, e := range res.Trace {
		if e.Signal == s.Solenoid && e.Value > maxCmd {
			maxCmd = e.Value
		}
	}
	if maxCmd < 4 {
		t.Errorf("max solenoid code %d, expected a hard setting", maxCmd)
	}
	lat := sim.MaxLatency(res.Trace, s.AccelSample, s.Solenoid)
	if lat < 0 {
		t.Fatal("no latency sample")
	}
	if lat > LatencyBudgetCycles {
		t.Errorf("sensor-to-actuator latency %d exceeds the %d-cycle budget",
			lat, LatencyBudgetCycles)
	}
}

func TestWatchdogTrips(t *testing.T) {
	s := NewShockAbsorber()
	opts := sim.Options{
		Cfg:     rtos.DefaultConfig(),
		Mode:    sim.Behavioral,
		Profile: vm.HC11(),
	}
	var stim []sim.Stimulus
	stim = append(stim, sim.Stimulus{Time: 100, Signal: s.ActAck}) // arm
	stim = append(stim, sim.PeriodicStimuli(s.Tick, 1000, 5000, 200000, nil)...)
	res, err := sim.Run(s.Net, stim, 300000, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := sim.CountEmissions(res.Trace, s.FailSafe); got != 1 {
		t.Errorf("failsafe emitted %d times, want exactly 1", got)
	}
	// The diagnostic collector must report the watchdog code.
	var code int64 = -1
	for _, e := range res.Trace {
		if e.Signal == s.DiagCode {
			code = e.Value
		}
	}
	if code != 7 {
		t.Errorf("diag code %d, want 7", code)
	}
}

func TestBeltSubnetComposes(t *testing.T) {
	n, _ := BeltSubnet()
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(n.Machines) != 3 {
		t.Fatalf("machines: %d", len(n.Machines))
	}
}
