package sim

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"polis/internal/cfsm"
	"polis/internal/pipeline"
	"polis/internal/rtos"
)

// This file implements parallel GALS partition execution: a network's
// clock-independent islands — connected components over shared signals
// and task chains — exchange no events, so each can be simulated on its
// own RTOS instance, concurrently, and the per-island traces merged
// afterwards into one deterministic timeline. Each island models its
// own CPU, so for networks with more than one island the timing differs
// from a single shared processor; within an island the semantics are
// exactly those of runSingle.

// Partitions returns the clock-independent islands of a network:
// machines connected through any shared signal (as reader or writer)
// or through membership in one of cfg's task chains are grouped
// together. Islands and their machines preserve network order, so the
// decomposition is deterministic.
func Partitions(n *cfsm.Network, cfg rtos.Config) [][]*cfsm.CFSM {
	idx := make(map[*cfsm.CFSM]int, len(n.Machines))
	for i, m := range n.Machines {
		idx[m] = i
	}
	parent := make([]int, len(n.Machines))
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	touches := func(m *cfsm.CFSM, s *cfsm.Signal) bool {
		for _, in := range m.Inputs {
			if in == s {
				return true
			}
		}
		for _, out := range m.Outputs {
			if out == s {
				return true
			}
		}
		return false
	}
	for _, s := range n.Signals {
		first := -1
		for i, m := range n.Machines {
			if !touches(m, s) {
				continue
			}
			if first < 0 {
				first = i
			} else {
				union(first, i)
			}
		}
	}
	for _, chain := range cfg.Chains {
		first := -1
		for _, m := range chain {
			i, ok := idx[m]
			if !ok {
				continue
			}
			if first < 0 {
				first = i
			} else {
				union(first, i)
			}
		}
	}
	var roots []int
	groups := make(map[int][]*cfsm.CFSM)
	for i, m := range n.Machines {
		r := find(i)
		if _, seen := groups[r]; !seen {
			roots = append(roots, r)
		}
		groups[r] = append(groups[r], m)
	}
	out := make([][]*cfsm.CFSM, 0, len(roots))
	for _, r := range roots {
		out = append(out, groups[r])
	}
	return out
}

// runPartitioned simulates each island on its own RTOS instance, up to
// opt.Workers islands concurrently, and merges the traces by time with
// island order breaking ties — the same result a serial loop over the
// islands produces.
func runPartitioned(ctx context.Context, n *cfsm.Network, stimuli []Stimulus, until int64, opt Options) (*Result, error) {
	parts := Partitions(n, opt.Cfg)
	if len(parts) <= 1 {
		res, err := runSingle(ctx, n, stimuli, until, opt)
		if err != nil {
			return nil, err
		}
		res.Systems = []*rtos.System{res.System}
		return res, nil
	}

	subs := make([]*cfsm.Network, len(parts))
	islandOf := make(map[*cfsm.Signal]int, len(n.Signals))
	for i, ms := range parts {
		subs[i] = n.Subnet(fmt.Sprintf("%s.p%d", n.Name, i), ms)
		for _, s := range subs[i].Signals {
			islandOf[s] = i
		}
	}

	// Route each stimulus to the island its signal is attached to;
	// signals no machine touches go to island 0, which records the
	// environment event in its trace (and drops it, like runSingle).
	// The single sort here replaces the per-island sort runSingle
	// would do; routing preserves relative order, so the outcome is
	// identical.
	sorted := append([]Stimulus(nil), stimuli...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Time < sorted[j].Time })
	perIsland := make([][]Stimulus, len(parts))
	for _, st := range sorted {
		i, ok := islandOf[st.Signal]
		if !ok {
			i = 0
		}
		perIsland[i] = append(perIsland[i], st)
	}

	workers := pipeline.Workers(opt.Workers, len(parts))
	if opt.Probe != nil {
		// A probe sees every island; probe implementations are not
		// required to be safe for concurrent use.
		workers = 1
	}

	results := make([]*Result, len(parts))
	errs := make([]error, len(parts))
	runIsland := func(i int) {
		iopt := opt
		iopt.Partition = false
		results[i], errs[i] = runSingle(ctx, subs[i], perIsland[i], until, iopt)
	}
	if workers == 1 {
		for i := range parts {
			runIsland(i)
		}
	} else {
		var wg sync.WaitGroup
		sem := make(chan struct{}, workers)
		for i := range parts {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				runIsland(i)
			}(i)
		}
		wg.Wait()
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("partition %d (%s): %w", i, subs[i].Name, err)
		}
	}

	out := &Result{Systems: make([]*rtos.System, len(parts))}
	traces := make([][]rtos.TraceEvent, len(parts))
	for i, r := range results {
		out.Systems[i] = r.System
		out.CodeBytes += r.CodeBytes
		out.DataBytes += r.DataBytes
		if r.Cycles > out.Cycles {
			out.Cycles = r.Cycles
		}
		traces[i] = r.Trace
	}
	out.Trace = mergeTraces(traces)
	return out, nil
}

// mergeTraces interleaves per-island traces into one timeline with a
// k-way heap merge: O(events × log islands) instead of the per-event
// linear scan over all islands it replaces. Each input is sorted by
// time already; ties across islands resolve in island order (the heap
// key is (time, island index)), so the merge is deterministic
// regardless of how many workers produced the inputs and byte-for-byte
// identical to the old scan's first-island-wins tie-break.
func mergeTraces(traces [][]rtos.TraceEvent) []rtos.TraceEvent {
	total := 0
	for _, t := range traces {
		total += len(t)
	}
	out := make([]rtos.TraceEvent, 0, total)
	pos := make([]int, len(traces))
	// heap holds one island index per non-exhausted trace, ordered by
	// the island's next event time, island index breaking ties.
	heap := make([]int, 0, len(traces))
	less := func(a, b int) bool {
		ta, tb := traces[a][pos[a]].Time, traces[b][pos[b]].Time
		if ta != tb {
			return ta < tb
		}
		return a < b
	}
	up := func(i int) {
		for i > 0 {
			parent := (i - 1) / 2
			if !less(heap[i], heap[parent]) {
				break
			}
			heap[i], heap[parent] = heap[parent], heap[i]
			i = parent
		}
	}
	down := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(heap) && less(heap[l], heap[small]) {
				small = l
			}
			if r < len(heap) && less(heap[r], heap[small]) {
				small = r
			}
			if small == i {
				return
			}
			heap[i], heap[small] = heap[small], heap[i]
			i = small
		}
	}
	for i, t := range traces {
		if len(t) > 0 {
			heap = append(heap, i)
			up(len(heap) - 1)
		}
	}
	for len(heap) > 0 {
		i := heap[0]
		out = append(out, traces[i][pos[i]])
		pos[i]++
		if pos[i] < len(traces[i]) {
			down(0)
		} else {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
			if len(heap) > 0 {
				down(0)
			}
		}
	}
	return out
}
