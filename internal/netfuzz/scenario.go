package netfuzz

import (
	"math/rand"

	"polis/internal/cfsm"
	"polis/internal/randcfsm"
	"polis/internal/rtos"
	"polis/internal/sim"
)

// Scenario is one small randomized co-simulation case: a network, an
// RTOS configuration and a stimulus timeline to run until Horizon.
type Scenario struct {
	Net     *cfsm.Network
	Cfg     rtos.Config
	Stimuli []sim.Stimulus
	Horizon int64
}

// GenScenario derives a deterministic scenario from a seed, covering
// the same knob space as the fuzz harness: topologies, scheduling
// policies, preemption, a hardware partition, task chains, polling,
// InISR delivery and buffer-semantics mutants. The simulator's golden
// engine tests and the RTOS ready-set invariant test share these
// scenarios; the stimuli are not sorted by time.
func GenScenario(seed int64) (*Scenario, error) {
	r := rand.New(rand.NewSource(seed))
	topos := []randcfsm.Topology{
		randcfsm.TopoIndependent, randcfsm.TopoChain,
		randcfsm.TopoChain, randcfsm.TopoDAG,
	}
	net, _, err := randcfsm.NewTopologyNetwork(r, 2+r.Intn(4), randcfsm.DefaultConfig(), topos[r.Intn(len(topos))])
	if err != nil {
		return nil, err
	}
	rc := rtos.DefaultConfig()
	if r.Intn(2) == 0 {
		rc.Policy = rtos.StaticPriority
		for _, m := range net.Machines {
			rc.Priority[m] = r.Intn(len(net.Machines))
		}
		if r.Intn(3) == 0 {
			rc.Preemptive = true
		}
	}
	hwIdx := -1
	if r.Intn(3) == 0 && len(net.Machines) > 1 {
		hwIdx = r.Intn(len(net.Machines))
		rc.HW[net.Machines[hwIdx]] = true
	}
	if r.Intn(3) == 0 {
		var sw []*cfsm.CFSM
		for i, m := range net.Machines {
			if i != hwIdx {
				sw = append(sw, m)
			}
		}
		if len(sw) >= 2 {
			rc.Chains = [][]*cfsm.CFSM{{sw[0], sw[1]}}
		}
	}
	if r.Intn(2) == 0 {
		for _, s := range net.Signals {
			if len(net.Readers(s)) == 0 {
				continue
			}
			fromEnv := len(net.Writers(s)) == 0
			fromHW := false
			if hwIdx >= 0 {
				for _, w := range net.Writers(s) {
					if w == net.Machines[hwIdx] {
						fromHW = true
					}
				}
			}
			if (fromEnv || fromHW) && r.Intn(2) == 0 {
				rc.Deliver[s] = rtos.Polling
			}
		}
	}
	for _, s := range net.PrimaryInputs() {
		if rc.Deliver[s] == rtos.Polling {
			continue
		}
		if r.Intn(4) == 0 {
			rc.InISR[s] = true
		}
	}
	mutants := []rtos.Mutant{
		rtos.MutantNone, rtos.MutantNone, rtos.MutantNone,
		rtos.MutantLostUndercount, rtos.MutantStaleOverwrite, rtos.MutantConsumeUnfired,
	}
	rc.Mutant = mutants[r.Intn(len(mutants))]

	prim := net.PrimaryInputs()
	vr := randcfsm.DefaultConfig().ValueRange
	count := 4 + r.Intn(16)
	// Alternate dense and sparse spacing so some stimuli land on a busy
	// system (contention, freeze-window posts) and some on a quiescent
	// one.
	gap := int64(40 + r.Intn(400))
	if r.Intn(2) == 0 {
		gap = int64(20_000 + r.Intn(60_000))
	}
	var st []sim.Stimulus
	tnow := gap
	for i := 0; i < count; i++ {
		s := prim[r.Intn(len(prim))]
		var v int64
		if !s.Pure {
			v = r.Int63n(vr)
		}
		st = append(st, sim.Stimulus{Time: tnow, Signal: s, Value: v})
		// Same-cycle and next-cycle duplicates stress the batched
		// delivery path with back-to-back one-place-buffer overwrites.
		if r.Intn(3) == 0 {
			st = append(st, sim.Stimulus{Time: tnow, Signal: s, Value: v + 1})
		}
		if r.Intn(4) == 0 {
			st = append(st, sim.Stimulus{Time: tnow + 1, Signal: s, Value: v + 2})
		}
		tnow += gap
	}
	return &Scenario{Net: net, Cfg: rc, Stimuli: st, Horizon: tnow + 30_000}, nil
}
