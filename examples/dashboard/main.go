// Dashboard: the paper's Section V-A case study. Synthesizes the nine
// dashboard CFSMs, prints the Table I/II style reports, and
// co-simulates a drive scenario (key on, no belt, accelerating) under
// the generated round-robin RTOS on the HC11-class target.
package main

import (
	"fmt"
	"log"

	"polis/internal/designs"
	"polis/internal/experiments"
	"polis/internal/rtos"
	"polis/internal/sim"
	"polis/internal/vm"
)

func main() {
	prof := vm.HC11()

	fmt.Println("== Table I: estimation vs measurement ==")
	t1, err := experiments.Table1(prof)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.FormatTable1(prof, t1))

	fmt.Println("\n== Table II: ordering strategies ==")
	t2, err := experiments.Table2(prof)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.FormatTable2(prof, t2))

	fmt.Println("\n== co-simulation: a drive scenario ==")
	d := designs.NewDashboard()
	until := int64(3_000_000)
	var stim []sim.Stimulus
	// Key on at t=1000; driver never fastens the belt.
	stim = append(stim, sim.Stimulus{Time: 1000, Signal: d.KeyOn})
	// 100 ms timebase.
	stim = append(stim, sim.PeriodicStimuli(d.Tick, 2000, 10_000, until, nil)...)
	// Wheel speeds up: period falls from 120 ms to 45 ms.
	stim = append(stim, sim.PeriodicStimuli(d.WheelPulse, 5000, 30_000, until,
		func(i int) int64 {
			p := 120 - int64(i)
			if p < 45 {
				p = 45
			}
			return p
		})...)
	// Engine at ~3000 rpm (20 ms crank period).
	stim = append(stim, sim.PeriodicStimuli(d.RPMPulse, 7000, 60_000, until,
		func(int) int64 { return 20 })...)
	// Fuel drains from 40%.
	stim = append(stim, sim.PeriodicStimuli(d.FuelSample, 9000, 150_000, until,
		func(i int) int64 { return 40 - 2*int64(i) })...)

	res, err := sim.Run(d.Net, stim, until, sim.Options{
		Cfg:     rtos.DefaultConfig(),
		Mode:    sim.VMExact,
		Profile: prof,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("simulated %.0f ms of driving, CPU utilisation %.1f%%\n",
		float64(res.Cycles)/float64(prof.ClockKHz), 100*res.System.Utilization())
	fmt.Printf("alarm_on events:  %d (belt never fastened after key on)\n",
		sim.CountEmissions(res.Trace, d.AlarmOn))
	fmt.Printf("alarm_off events: %d (alarm times out)\n",
		sim.CountEmissions(res.Trace, d.AlarmOff))
	fmt.Printf("speed updates: %d, gauge duty updates: %d\n",
		sim.CountEmissions(res.Trace, d.Speed), sim.CountEmissions(res.Trace, d.SpeedDuty))
	fmt.Printf("low fuel warnings: %d\n", sim.CountEmissions(res.Trace, d.LowFuel))

	var lastSpeed, lastDuty int64 = -1, -1
	for _, e := range res.Trace {
		switch e.Signal {
		case d.Speed:
			lastSpeed = e.Value
		case d.SpeedDuty:
			lastDuty = e.Value
		}
	}
	fmt.Printf("final speed %d km/h -> gauge duty %d/255\n", lastSpeed, lastDuty)
	fmt.Printf("sensor-to-gauge latency: max %d cycles (%.0f us)\n",
		sim.MaxLatency(res.Trace, d.WheelPulse, d.SpeedDuty),
		float64(sim.MaxLatency(res.Trace, d.WheelPulse, d.SpeedDuty))*1000/float64(prof.ClockKHz))
}
