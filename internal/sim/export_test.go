package sim

import (
	"context"

	"polis/internal/cfsm"
	"polis/internal/estimate"
	"polis/internal/pipeline"
)

// BehavioralCosts synthesizes and estimates every machine of n once, as
// a Behavioral run with opt does, and returns the per-reaction cost
// that run charges each of them.
func BehavioralCosts(n *cfsm.Network, opt Options) (map[*cfsm.CFSM]int64, error) {
	if opt.Profile == nil {
		opt.Profile = pipeline.DefaultTarget()
	}
	params, err := estimate.CalibrateCached(opt.Profile)
	if err != nil {
		return nil, err
	}
	costs := make(map[*cfsm.CFSM]int64, len(n.Machines))
	for _, m := range n.Machines {
		sg, err := pipeline.SynthesizeGraph(context.Background(), m, opt.synthesis(), nil)
		if err != nil {
			return nil, err
		}
		est := estimate.EstimateSGraph(sg.SGraph, params,
			estimate.Options{Codegen: opt.Codegen, ScenarioProfile: sg.Spec})
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
