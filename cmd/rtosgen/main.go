// Command rtosgen emits the C source of the automatically generated
// RTOS (Section IV) for a benchmark design: the scheduler loop for the
// chosen policy, the statically expanded event emission/detection
// services, ISRs or the polling routine, plus the size model on the
// target.
//
// Usage:
//
//	rtosgen [-design dashboard|shock] [-policy rr|prio] [-preemptive]
//	        [-poll sig1,sig2] [-target hc11|r3k]
//
// An unknown -policy or -target name exits 1 with an error listing
// the accepted names.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"polis"
	"polis/internal/cfsm"
	"polis/internal/designs"
	"polis/internal/rtos"
	"polis/internal/vm"
)

func main() {
	design := flag.String("design", "shock", "benchmark design: dashboard or shock")
	policy := flag.String("policy", "rr", "scheduling policy: rr or prio")
	preemptive := flag.Bool("preemptive", false, "preemptive static priorities")
	poll := flag.String("poll", "", "comma-separated signals delivered by polling")
	target := flag.String("target", "hc11", "cost profile: hc11 or r3k")
	flag.Parse()

	prof, err := vm.Target(*target)
	if err != nil {
		fatal(err)
	}
	cfg := rtos.DefaultConfig()
	if cfg.Policy, err = rtos.ParsePolicy(*policy); err != nil {
		fatal(err)
	}

	var net *cfsm.Network
	switch *design {
	case "dashboard":
		net = designs.NewDashboard().Net
	case "shock":
		net = designs.NewShockAbsorber().Net
	default:
		fatal(fmt.Errorf("unknown design %q", *design))
	}

	if cfg.Policy == rtos.StaticPriority {
		for i, m := range net.Machines {
			cfg.Priority[m] = len(net.Machines) - i
		}
	}
	cfg.Preemptive = *preemptive
	if *poll != "" {
		byName := map[string]*cfsm.Signal{}
		for _, s := range net.Signals {
			byName[s.Name] = s
		}
		for _, name := range strings.Split(*poll, ",") {
			s, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fatal(fmt.Errorf("unknown signal %q", name))
			}
			cfg.Deliver[s] = rtos.Polling
		}
	}

	src, size, err := polis.GenerateRTOS(net, cfg, prof)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("/* size model on %s: ROM %d bytes, RAM %d bytes */\n\n",
		prof.Name, size.CodeBytes, size.DataBytes)
	fmt.Print(src)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rtosgen:", err)
	os.Exit(1)
}
