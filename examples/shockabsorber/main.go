// Shock absorber: the paper's Section V-B industrial redesign.
// Synthesizes the six-module semi-active suspension controller,
// generates its RTOS (round-robin scheduler and I/O drivers), prints
// the ROM/RAM comparison against the hand-written reference, and
// verifies the sensor-to-actuator latency budget in co-simulation.
package main

import (
	"fmt"
	"log"

	"polis"
	"polis/internal/designs"
	"polis/internal/experiments"
	"polis/internal/rtos"
	"polis/internal/vm"
)

func main() {
	prof := vm.HC11()

	fmt.Println("== redesign experiment ==")
	rep, err := experiments.ShockAbsorberExperiment(prof)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(experiments.FormatShock(prof, rep))

	fmt.Println("\n== per-module synthesis ==")
	s := designs.NewShockAbsorber()
	for _, m := range s.Modules() {
		art, err := polis.Synthesize(m, polis.Options{Target: prof})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-16s %4d bytes, worst transition %4d cycles (%.1f us)\n",
			m.Name, art.CodeSize, art.Measured.Max,
			float64(art.Measured.Max)*1000/float64(prof.ClockKHz))
	}

	fmt.Println("\n== generated RTOS (excerpt) ==")
	src, size, err := polis.GenerateRTOS(s.Net, rtos.DefaultConfig(), prof)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("RTOS size model: ROM %d bytes, RAM %d bytes\n", size.CodeBytes, size.DataBytes)
	// Print the scheduler loop only.
	start := indexOf(src, "void polis_scheduler")
	if start >= 0 {
		fmt.Print(src[start:])
	}

	fmt.Println("\n== schedulability (rate-monotonic) ==")
	// Periods from the workload: accel every 4000 cycles, ticks and
	// acks every 20000; WCETs from the estimator via Synthesize.
	var specs []rtos.TaskSpec
	periods := map[string]int64{
		"accel_filter":   4000,
		"road_estimator": 4000,
		"mode_logic":     4000,
		"actuator":       4000,
		"watchdog":       20000,
		"diag":           20000,
	}
	for _, m := range s.Modules() {
		art, err := polis.Synthesize(m, polis.Options{Target: prof})
		if err != nil {
			log.Fatal(err)
		}
		specs = append(specs, rtos.TaskSpec{
			Name: m.Name, WCET: art.Estimate.MaxCycles, Period: periods[m.Name],
		})
	}
	sched := rtos.Schedulability(specs, rtos.ScheduleOverhead)
	fmt.Printf("utilisation %.3f (Liu-Layland bound %.3f), by-bound=%v, schedulable=%v\n",
		sched.Utilization, sched.LLBound, sched.ByBound, sched.Schedulable)
	for i, r := range sched.ResponseTimes {
		fmt.Printf("  task %d worst-case response: %d cycles\n", i, r)
	}
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}
