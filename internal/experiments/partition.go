package experiments

import (
	"fmt"
	"strings"

	"polis/internal/cfsm"
	"polis/internal/designs"
	"polis/internal/rtos"
	"polis/internal/sim"
	"polis/internal/vm"
)

// PartitionRow is one hardware/software partitioning of the
// shock-absorber front end. The CFSM model exists precisely so the
// same specification maps to either side (Section I-A, II-D); this
// experiment quantifies the co-design trade-off the paper's flow feeds
// with its estimates: moving the sample-rate filter into hardware
// frees CPU cycles and shortens the actuation latency at the price of
// a custom circuit.
type PartitionRow struct {
	Name        string
	HWModules   int
	MaxLatency  int64   // sensor -> solenoid, cycles
	Utilization float64 // CPU busy fraction
	SWCodeBytes int64
}

// PartitionSweep runs the shock absorber with 0, 1 and 2 of its
// front-end modules moved to hardware.
func PartitionSweep(prof *vm.Profile) ([]PartitionRow, error) {
	var rows []PartitionRow
	for _, hwCount := range []int{0, 1, 2} {
		s := designs.NewShockAbsorber()
		cfg := rtos.DefaultConfig()
		hwNames := []string{}
		switch hwCount {
		case 1:
			cfg.HW = map[*cfsm.CFSM]bool{s.Filter: true}
			hwNames = append(hwNames, s.Filter.Name)
		case 2:
			cfg.HW = map[*cfsm.CFSM]bool{s.Filter: true, s.Estimator: true}
			hwNames = append(hwNames, s.Filter.Name, s.Estimator.Name)
		}
		var stim []sim.Stimulus
		stim = append(stim, sim.PeriodicStimuli(s.AccelSample, 1000, 4000, 700_000,
			func(i int) int64 { return int64(75 + (i%6)*9) })...)
		stim = append(stim, sim.Stimulus{Time: 500, Signal: s.SpeedSample, Value: 120})
		res, err := sim.Run(s.Net, stim, 800_000, sim.Options{
			Cfg: cfg, Mode: sim.VMExact, Profile: prof,
		})
		if err != nil {
			return nil, err
		}
		name := "all-software"
		if hwCount > 0 {
			name = "hw:" + strings.Join(hwNames, "+")
		}
		rows = append(rows, PartitionRow{
			Name:        name,
			HWModules:   hwCount,
			MaxLatency:  sim.MaxLatency(res.Trace, s.AccelSample, s.Solenoid),
			Utilization: res.System.Utilization(),
			SWCodeBytes: res.CodeBytes,
		})
	}
	return rows, nil
}

// FormatPartition renders the partitioning sweep.
func FormatPartition(prof *vm.Profile, rows []PartitionRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Hardware/software partitioning sweep (shock absorber), target %s\n", prof.Name)
	fmt.Fprintf(&b, "%-24s %10s %12s %10s\n", "partition", "latency", "CPU util", "sw code B")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %10d %11.1f%% %10d\n",
			r.Name, r.MaxLatency, 100*r.Utilization, r.SWCodeBytes)
	}
	return b.String()
}

// ChainRow compares the shock-absorber pipeline with and without task
// chaining (Section IV-A: "chain certain executions of CFSMs into a
// single task, thus reducing scheduling and communication overhead").
type ChainRow struct {
	Name          string
	MaxLatency    int64
	ScheduleCalls int64
	BusyCycles    int64
}

// AblationChaining measures the chained sensor-to-actuator pipeline.
func AblationChaining(prof *vm.Profile) ([]ChainRow, error) {
	var rows []ChainRow
	for _, chained := range []bool{false, true} {
		s := designs.NewShockAbsorber()
		cfg := rtos.DefaultConfig()
		name := "unchained"
		if chained {
			name = "chained"
			cfg.Chains = [][]*cfsm.CFSM{{s.Filter, s.Estimator, s.ModeLogic, s.Actuator}}
		}
		var stim []sim.Stimulus
		stim = append(stim, sim.PeriodicStimuli(s.AccelSample, 1000, 4000, 700_000,
			func(i int) int64 { return int64(75 + (i%6)*9) })...)
		stim = append(stim, sim.Stimulus{Time: 500, Signal: s.SpeedSample, Value: 120})
		res, err := sim.Run(s.Net, stim, 800_000, sim.Options{
			Cfg: cfg, Mode: sim.VMExact, Profile: prof,
		})
		if err != nil {
			return nil, err
		}
		rows = append(rows, ChainRow{
			Name:          name,
			MaxLatency:    sim.MaxLatency(res.Trace, s.AccelSample, s.Solenoid),
			ScheduleCalls: res.System.ScheduleCalls,
			BusyCycles:    res.System.BusyCycles,
		})
	}
	return rows, nil
}

// FormatChaining renders the chaining ablation.
func FormatChaining(prof *vm.Profile, rows []ChainRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: task chaining (Section IV-A), target %s\n", prof.Name)
	fmt.Fprintf(&b, "%-12s %10s %15s %12s\n", "config", "latency", "scheduler calls", "busy cycles")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %10d %15d %12d\n", r.Name, r.MaxLatency, r.ScheduleCalls, r.BusyCycles)
	}
	return b.String()
}
