// Traffic light: a two-module pedestrian-crossing controller written
// entirely in the Esterel-subset text format. The program is compiled
// into a CFSM network (same-named signals connect the modules),
// co-simulated under the generated RTOS, checked for the safety
// property "walk is never granted while cars have green", and verified
// exhaustively with the explicit-state model checker.
package main

import (
	"fmt"
	"log"

	"polis/internal/cfsm"
	"polis/internal/esterel"
	"polis/internal/rtos"
	"polis/internal/sim"
	"polis/internal/verify"
	"polis/internal/vm"
)

const system = `
% Divide the fast timebase by four.
module divider:
input tick;
output slow;
var cnt : integer in
loop
  await tick;
  if cnt >= 3 then
    cnt := 0;
    emit slow;
  else
    cnt := cnt + 1;
  end if
end loop
end var
end module

% Phase controller: cars green until a request arrives, then yellow,
% then red with walk granted for three slow periods.
module lights:
input slow;
input request;
output cars : integer;  % 0=red 1=yellow 2=green
output walk : integer;  % 1=walk 0=stop
var phase : integer in
loop
  await slow;
  if phase = 0 then
    if present request then
      phase := 1;
      emit cars(1);
    end if
  else
    if phase = 1 then
      phase := 2;
      emit cars(0);
      emit walk(1);
    else
      if phase >= 4 then
        phase := 0;
        emit walk(0);
        emit cars(2);
      else
        phase := phase + 1;
      end if
    end if
  end if
end loop
end var
end module
`

func main() {
	net, machines, err := esterel.CompileProgram(system)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compiled %d modules; internal signals:", len(net.Machines))
	for _, s := range net.InternalSignals() {
		fmt.Printf(" %s", s.Name)
	}
	fmt.Println()

	var tick, request, cars, walk *cfsm.Signal
	for _, s := range net.Signals {
		switch s.Name {
		case "tick":
			tick = s
		case "request":
			request = s
		case "cars":
			cars = s
		case "walk":
			walk = s
		}
	}

	// Co-simulate: ticks every 10k cycles, pedestrian requests now
	// and then.
	until := int64(2_000_000)
	stim := sim.PeriodicStimuli(tick, 1000, 10_000, until, nil)
	for t := int64(150_000); t < until; t += 600_000 {
		stim = append(stim, sim.Stimulus{Time: t, Signal: request})
	}
	res, err := sim.Run(net, stim, until, sim.Options{
		Cfg:     rtos.DefaultConfig(),
		Mode:    sim.VMExact,
		Profile: vm.HC11(),
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nlight sequence (time in cycles):")
	walkActive := false
	violations := 0
	for _, e := range res.Trace {
		switch e.Signal {
		case cars:
			name := [...]string{"RED", "YELLOW", "GREEN"}[e.Value]
			fmt.Printf("  %9d  cars -> %s\n", e.Time, name)
			if e.Value == 2 && walkActive {
				violations++
			}
		case walk:
			state := "STOP"
			if e.Value == 1 {
				state = "WALK"
			}
			walkActive = e.Value == 1
			fmt.Printf("  %9d  walk -> %s\n", e.Time, state)
		}
	}
	fmt.Printf("\ntrace safety (green while walk): %d violations\n", violations)

	// Exhaustive verification of the lights module: the phase counter
	// stays within [0, 5).
	lights := machines["lights"]
	var phase *cfsm.StateVar
	for _, sv := range lights.States {
		if sv.Name == "phase" {
			phase = sv
		}
	}
	sp, err := verify.DefaultSpace(lights, nil)
	if err != nil {
		log.Fatal(err)
	}
	vres, err := verify.Reachable(lights, sp, verify.Options{
		Invariant: func(st verify.State) bool {
			return st[phase] >= 0 && st[phase] < 5
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if vres.Violation != nil {
		fmt.Println("INVARIANT VIOLATED:")
		fmt.Print(verify.FormatTrace(vres.Violation))
	} else {
		fmt.Printf("verified: phase stays in [0,5) over %d reachable states (%d pairs explored)\n",
			len(vres.States), vres.Explored)
	}
}
