package sim

import (
	"context"

	"polis/internal/cfsm"
)

// BehavioralCosts synthesizes and estimates every machine of n once,
// through the function a Behavioral run with opt builds its tasks
// with, and returns the per-reaction cost that run charges each of
// them.
func BehavioralCosts(n *cfsm.Network, opt Options) (map[*cfsm.CFSM]int64, error) {
	costs := make(map[*cfsm.CFSM]int64, len(n.Machines))
	for _, m := range n.Machines {
		est, err := estimateTask(context.Background(), m, opt)
		if err != nil {
			return nil, err
		}
		costs[m] = est.MaxCycles
	}
	return costs, nil
}

// TracePrefix and TraceReserve expose the trace reservation rule of
// runSingle.
var (
	TracePrefix  = tracePrefix
	TraceReserve = traceReserve
)
