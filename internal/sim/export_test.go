package sim

import (
	"polis/internal/cfsm"
	"polis/internal/estimate"
	"polis/internal/vm"
)

// BehavioralCosts synthesizes and estimates every machine of n once, as
// a Behavioral run with opt does, and returns the per-reaction cost
// that run charges each of them.
func BehavioralCosts(n *cfsm.Network, opt Options) (map[*cfsm.CFSM]int64, error) {
	if opt.Profile == nil {
		opt.Profile = vm.HC11()
	}
	params, err := estimate.Calibrate(opt.Profile)
	if err != nil {
		return nil, err
	}
	costs := make(map[*cfsm.CFSM]int64, len(n.Machines))
	for _, m := range n.Machines {
		est, err := behavioralEstimate(m, opt, params)
		if err != nil {
			return nil, err
		}
		costs[m] = est.MaxCycles
	}
	return costs, nil
}
