package experiments

import (
	"fmt"
	"strings"

	"polis/internal/designs"
	"polis/internal/pipeline"
	"polis/internal/rtos"
	"polis/internal/sim"
	"polis/internal/vm"
)

// ShockReport is the Section V-B redesign experiment: synthesized
// ROM/RAM (modules + generated RTOS with round-robin scheduler and I/O
// drivers) against the hand-written implementation's footprint, and
// the sensor-to-actuator latency against the specification's budget.
type ShockReport struct {
	SynthROM  int64 // bytes, tasks + RTOS
	SynthRAM  int64
	RTOSROM   int64
	RTOSRAM   int64
	HandROM   int64 // the paper's manual implementation
	HandRAM   int64
	MaxLat    int64 // worst observed sensor->solenoid latency, cycles
	Budget    int64
	LatencyOK bool
	// OptimizedROM/RAM apply the write-before-read copy analysis the
	// paper names as the pending improvement.
	OptimizedROM int64
	OptimizedRAM int64
}

// Footprints the paper reports for the hand-designed shock absorber.
const (
	handROMBytes = 32 * 1024
	handRAMBytes = 8 * 1024
)

// ShockAbsorberExperiment synthesizes the controller, sizes it, and
// measures the I/O latency under a rough-road workload.
func ShockAbsorberExperiment(prof *vm.Profile) (*ShockReport, error) {
	s := designs.NewShockAbsorber()
	cfg := rtos.DefaultConfig() // round-robin, as in the paper
	rep := &ShockReport{
		HandROM: handROMBytes,
		HandRAM: handRAMBytes,
		Budget:  designs.LatencyBudgetCycles,
	}

	size := func(copyOpt bool) (int64, int64, error) {
		opt := pipeline.Options{Target: prof}
		opt.Codegen.OptimizeCopies = copyOpt
		arts, err := synthesize(s.Modules(), opt)
		if err != nil {
			return 0, 0, err
		}
		var rom, ram int64
		for _, a := range arts {
			rom += int64(a.CodeSize)
			ram += int64(prof.DataSize(a.Program))
		}
		return rom, ram, nil
	}
	rsize := rtos.SizeEstimate(prof, s.Net, cfg)
	rep.RTOSROM = rsize.CodeBytes
	rep.RTOSRAM = rsize.DataBytes

	rom, ram, err := size(false)
	if err != nil {
		return nil, err
	}
	rep.SynthROM = rom + rsize.CodeBytes
	rep.SynthRAM = ram + rsize.DataBytes

	optROM, optRAM, err := size(true)
	if err != nil {
		return nil, err
	}
	rep.OptimizedROM = optROM + rsize.CodeBytes
	rep.OptimizedRAM = optRAM + rsize.DataBytes

	// Latency under a rough-road workload.
	var stim []sim.Stimulus
	stim = append(stim, sim.PeriodicStimuli(s.AccelSample, 1000, 4000, 900_000,
		func(i int) int64 { return int64(70 + (i%7)*8) })...)
	stim = append(stim, sim.Stimulus{Time: 500, Signal: s.SpeedSample, Value: 120})
	stim = append(stim, sim.PeriodicStimuli(s.Tick, 3000, 20_000, 900_000, nil)...)
	stim = append(stim, sim.PeriodicStimuli(s.ActAck, 3500, 20_000, 900_000, nil)...)
	res, err := sim.Run(s.Net, stim, 1_000_000, sim.Options{
		Cfg: cfg, Mode: sim.VMExact, Profile: prof,
	})
	if err != nil {
		return nil, err
	}
	rep.MaxLat = sim.MaxLatency(res.Trace, s.AccelSample, s.Solenoid)
	rep.LatencyOK = rep.MaxLat >= 0 && rep.MaxLat <= rep.Budget
	return rep, nil
}

// FormatShock renders the Section V-B comparison.
func FormatShock(prof *vm.Profile, r *ShockReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Shock absorber redesign (Section V-B), target %s\n", prof.Name)
	fmt.Fprintf(&b, "  synthesized: ROM %6d B  RAM %5d B (incl. RTOS %d/%d B)\n",
		r.SynthROM, r.SynthRAM, r.RTOSROM, r.RTOSRAM)
	fmt.Fprintf(&b, "  with copy optimisation: ROM %6d B  RAM %5d B\n",
		r.OptimizedROM, r.OptimizedRAM)
	fmt.Fprintf(&b, "  hand-designed reference: ROM %6d B  RAM %5d B\n", r.HandROM, r.HandRAM)
	fmt.Fprintf(&b, "  sensor->actuator latency: %d cycles (budget %d) ok=%v\n",
		r.MaxLat, r.Budget, r.LatencyOK)
	return b.String()
}
