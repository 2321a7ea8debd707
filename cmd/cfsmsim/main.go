// Command cfsmsim co-simulates a benchmark design under its generated
// RTOS: software CFSMs execute on the cycle-accurate virtual CPU,
// environment stimuli arrive on a cycle timeline, and the tool prints
// the event trace summary, end-to-end latencies and CPU utilisation.
//
// Usage:
//
//	cfsmsim [-design dashboard|shock] [-target hc11|r3k]
//	        [-until cycles] [-mode vm|behavioral] [-policy rr|prio]
//	        [-parallel] [-workers n] [-trace]
//	        [-profile-out prof.json] [-profile prof.json]
//
// An unknown -target, -mode or -policy name exits 1 with an error
// listing the accepted names.
//
// -profile-out captures an execution profile (per-module TEST outcome
// frequencies) during the run and writes it as JSON; feeding it back
// with -profile (here or to polisc) reorders each module's TEST
// outcome edges so the observed hot path becomes the fall-through
// path, equivalence-gated per module.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"polis/internal/cfsm"
	"polis/internal/designs"
	"polis/internal/profile"
	"polis/internal/rtos"
	"polis/internal/sim"
	"polis/internal/vm"
)

func main() {
	design := flag.String("design", "dashboard", "benchmark design: dashboard or shock")
	target := flag.String("target", "hc11", "cost profile: hc11 or r3k")
	until := flag.Int64("until", 2_000_000, "simulation horizon in cycles")
	mode := flag.String("mode", "vm", "software timing: vm (exact) or behavioral (estimated)")
	policy := flag.String("policy", "rr", "scheduling policy: rr or prio")
	parallel := flag.Bool("parallel", false, "simulate clock-independent GALS islands concurrently (one RTOS per island)")
	workers := flag.Int("workers", 0, "island worker pool size with -parallel; 0 uses GOMAXPROCS")
	trace := flag.Bool("trace", false, "dump the full event trace")
	csvPath := flag.String("csv", "", "write the event trace as CSV to this file")
	dot := flag.Bool("dot", false, "print the network topology in Graphviz format and exit")
	profOut := flag.String("profile-out", "", "capture an execution profile and write it as JSON")
	profIn := flag.String("profile", "", "reorder TEST outcomes hot-path-first using this execution profile JSON (from a -profile-out run)")
	flag.Parse()

	opts := sim.Options{
		Cfg:       rtos.DefaultConfig(),
		Partition: *parallel,
		Workers:   *workers,
	}
	var err error
	if opts.Profile, err = vm.Target(*target); err != nil {
		fatal(err)
	}
	if opts.Mode, err = sim.ParseMode(*mode); err != nil {
		fatal(err)
	}
	if opts.Cfg.Policy, err = rtos.ParsePolicy(*policy); err != nil {
		fatal(err)
	}
	if *profIn != "" {
		p, err := profile.Load(*profIn)
		if err != nil {
			fatal(err)
		}
		opts.Specialize = p
	}
	var collector *profile.Collector
	if *profOut != "" {
		collector = profile.NewCollector()
		opts.Probe = collector
	}

	var net *cfsm.Network
	var stimuli []sim.Stimulus
	var pairs [][2]*cfsm.Signal
	switch *design {
	case "dashboard":
		d := designs.NewDashboard()
		net = d.Net
		stimuli = append(stimuli, sim.Stimulus{Time: 1000, Signal: d.KeyOn})
		stimuli = append(stimuli, sim.PeriodicStimuli(d.Tick, 2000, 10_000, *until, nil)...)
		stimuli = append(stimuli, sim.PeriodicStimuli(d.WheelPulse, 3000, 40_000, *until,
			func(i int) int64 { return int64(60 + i%20) })...)
		stimuli = append(stimuli, sim.PeriodicStimuli(d.RPMPulse, 4000, 50_000, *until,
			func(i int) int64 { return int64(15 + i%10) })...)
		stimuli = append(stimuli, sim.PeriodicStimuli(d.FuelSample, 5000, 200_000, *until,
			func(i int) int64 { return int64(50 - i) })...)
		pairs = [][2]*cfsm.Signal{
			{d.WheelPulse, d.SpeedDuty},
			{d.RPMPulse, d.RPMDuty},
			{d.FuelSample, d.FuelDuty},
		}
	case "shock":
		s := designs.NewShockAbsorber()
		net = s.Net
		stimuli = append(stimuli, sim.PeriodicStimuli(s.AccelSample, 1000, 4000, *until,
			func(i int) int64 { return int64(40 + (i%9)*9) })...)
		stimuli = append(stimuli, sim.Stimulus{Time: 500, Signal: s.SpeedSample, Value: 95})
		stimuli = append(stimuli, sim.PeriodicStimuli(s.Tick, 3000, 20_000, *until, nil)...)
		stimuli = append(stimuli, sim.PeriodicStimuli(s.ActAck, 3500, 20_000, *until, nil)...)
		pairs = [][2]*cfsm.Signal{{s.AccelSample, s.Solenoid}}
	default:
		fatal(fmt.Errorf("unknown design %q", *design))
	}

	if *dot {
		fmt.Print(net.Dot())
		return
	}

	res, err := sim.Run(net, stimuli, *until, opts)
	if err != nil {
		fatal(err)
	}
	if collector != nil {
		p := collector.Profile()
		if err := p.Save(*profOut); err != nil {
			fatal(err)
		}
		samples := int64(0)
		for _, mp := range p.Modules {
			samples += mp.Reactions
		}
		fmt.Printf("profile: %d module(s), %d reaction sample(s) written to %s\n",
			len(p.Modules), samples, *profOut)
	}
	if opts.Specialize != nil {
		fmt.Println("specialize: TEST outcomes reordered hot-path-first (equivalence-gated)")
	}

	// A partitioned run has one RTOS (and CPU) per island; aggregate the
	// per-island statistics for the summary lines.
	systems := res.Systems
	if systems == nil {
		systems = []*rtos.System{res.System}
	}
	var busy, now, schedCalls, interrupts int64
	for _, sys := range systems {
		busy += sys.BusyCycles
		if sys.Now > now {
			now = sys.Now
		}
		schedCalls += sys.ScheduleCalls
		interrupts += sys.Interrupts
	}
	util := 0.0
	if now > 0 {
		util = float64(busy) / float64(now*int64(len(systems)))
	}
	fmt.Printf("simulated %d cycles (%.2f ms at %d kHz), CPU utilisation %.1f%%\n",
		res.Cycles, float64(res.Cycles)/float64(opts.Profile.ClockKHz),
		opts.Profile.ClockKHz, 100*util)
	fmt.Printf("software: %d code bytes, %d data bytes; %d scheduler calls, %d interrupts\n",
		res.CodeBytes, res.DataBytes, schedCalls, interrupts)
	if len(systems) > 1 {
		fmt.Printf("partitions: %d clock-independent islands, one CPU each\n", len(systems))
	}

	sigs := slices.Clone(net.Signals)
	slices.SortFunc(sigs, func(a, b *cfsm.Signal) int { return strings.Compare(a.Name, b.Name) })
	fmt.Println("emissions:")
	for _, sig := range sigs {
		if n := sim.CountEmissions(res.Trace, sig); n > 0 {
			fmt.Printf("  %-14s %6d\n", sig.Name, n)
		}
	}
	for _, pr := range pairs {
		lat := sim.MaxLatency(res.Trace, pr[0], pr[1])
		fmt.Printf("max latency %s -> %s: %d cycles\n", pr[0].Name, pr[1].Name, lat)
	}
	fmt.Println("task statistics:")
	for _, sys := range systems {
		for _, t := range sys.Tasks {
			fmt.Printf("  %-14s executions %6d  fired %6d  lost events %4d\n",
				t.M.Name, t.Executions, t.Fired, t.Lost)
		}
	}
	if *trace {
		fmt.Println("trace:")
		for _, e := range res.Trace {
			fmt.Printf("  %10d  %-14s value %6d  from %s\n", e.Time, e.Signal.Name, e.Value, e.From)
		}
	}
	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatal(err)
		}
		if err := sim.WriteTraceCSV(f, res.Trace); err != nil {
			f.Close()
			fatal(err)
		}
		// A failed Close loses buffered rows; it must be as fatal as a
		// failed write.
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Println("trace written to", *csvPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cfsmsim:", err)
	os.Exit(1)
}
