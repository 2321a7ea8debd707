package pipeline

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"polis/internal/names"
	"polis/internal/sgraph"
)

// Stage identifies one phase of the per-CFSM synthesis flow, in
// execution order. Stage wall times are reported through Trace events
// and aggregated by the Collector.
type Stage int

// Synthesis stages (Section III of the paper, one per major step).
const (
	// StageReactive extracts the reactive function and builds the
	// characteristic-function BDD (Section III-B1).
	StageReactive Stage = iota
	// StageSift runs dynamic variable reordering (Section III-B3).
	StageSift
	// StageSGraph constructs the s-graph from the ordered BDD
	// (procedure build, Theorem 1).
	StageSGraph
	// StageReduce runs the fixed-point s-graph reduction engine
	// (sharing, don't-care TEST elimination, ASSIGN straightening);
	// only present when Options.Reduce is set.
	StageReduce
	// StageSpecialize runs profile-guided hot-path specialization
	// (TEST outcome reordering gated by CheckEquivalent); only present
	// when Options.Profile covers the module.
	StageSpecialize
	// StageCodegen emits C, assembles object code and measures exact
	// cycle bounds on the virtual target.
	StageCodegen
	// StageEstimate runs the s-graph cost/performance estimator
	// (Section III-C).
	StageEstimate

	numStages
)

var stageNames = []string{
	StageReactive: "reactive", StageSift: "sift", StageSGraph: "s-graph",
	StageReduce: "reduce", StageSpecialize: "specialize",
	StageCodegen: "codegen", StageEstimate: "estimate",
}

func (s Stage) String() string { return names.Name(stageNames, s) }

// EventKind classifies trace events.
type EventKind int

// Event kinds.
const (
	// EvRunStart opens a network run; Modules and Workers are set.
	EvRunStart EventKind = iota
	// EvRunEnd closes a network run; Duration is the wall time.
	EvRunEnd
	// EvStage reports one finished stage of one module.
	EvStage
	// EvBDD reports the module's BDD statistics after s-graph
	// construction: peak live nodes, sift swaps (plus swaps skipped by
	// the interaction-matrix fast path and block positions discarded
	// by lower-bound pruning), sift passes, and the kernel's lossy
	// operation-cache counters (hits, misses, resets, evictions).
	EvBDD
	// EvCache reports one Cache.Serve call when it returns: Outcome
	// says whether it synthesized (miss), joined a flight another
	// worker or run sharing the Cache was leading (dedup), or was
	// served from the disk or memory layer. A joiner whose leader was
	// cancelled and which then led itself reports only the final
	// outcome.
	EvCache
	// EvModuleError reports a failed module with its error.
	EvModuleError
	// EvReduce reports the module's s-graph reduction statistics.
	EvReduce
	// EvSpecialize reports the module's profile-guided specialization
	// statistics.
	EvSpecialize
)

// Event is one observation emitted by the pipeline. Only the fields
// relevant to the Kind are set.
type Event struct {
	Kind   EventKind
	Module string

	Stage    Stage
	Duration time.Duration

	Modules int // EvRunStart: modules in the run
	Workers int // EvRunStart: worker goroutines

	// Per-stage BDD snapshot, attached to the EvStage events of the
	// BDD-bearing stages (reactive, sift, s-graph): live and peak
	// physical node counts of the module's manager as the stage ends,
	// and the operation-cache traffic the stage itself generated
	// (deltas, so per-stage hit rates are meaningful).
	BDDLive        int // EvStage: live nodes at stage end
	BDDPeakNodes   int // EvStage: peak live nodes so far
	BDDCacheHits   int // EvStage: op-cache hits during the stage
	BDDCacheMisses int // EvStage: op-cache misses during the stage

	PeakNodes  int // EvBDD
	SiftSwaps  int // EvBDD
	SiftPasses int // EvBDD
	// Sifting pruning counters (EvBDD): adjacent swaps resolved by the
	// interaction-matrix permutation fast path without touching the
	// unique tables, and candidate block positions skipped because the
	// support-based lower bound proved they could not beat the best
	// size seen so far.
	SiftSwapsSkipped int
	SiftLBPrunes     int
	// Operation-cache counters of the module's BDD manager (EvBDD).
	// The cache is lossy and generation-stamped: resets count actual
	// reallocations (growth), evictions count colliding overwrites.
	CacheHits      int
	CacheMisses    int
	CacheResets    int
	CacheEvictions int

	Outcome Outcome // EvCache

	// Cache is a snapshot of the run cache's counters, attached to
	// EvRunEnd when the run had a cache: the per-lookup lock-wait
	// totals are the worker pool's shared-lock contention surface.
	Cache *CacheStats

	Reduce sgraph.ReduceStats // EvReduce

	Specialize sgraph.SpecializeStats // EvSpecialize

	Err error // EvModuleError
}

// Trace receives pipeline events. Implementations must be safe for
// concurrent use: worker goroutines emit events in parallel.
type Trace interface {
	Event(Event)
}

type nopTrace struct{}

func (nopTrace) Event(Event) {}

// Collector is the default Trace: it aggregates stage wall times, BDD
// statistics and cache counters under a mutex and renders them as a
// one-screen report.
type Collector struct {
	mu sync.Mutex

	modules int
	workers int
	runs    int
	wall    time.Duration

	stageTotal [numStages]time.Duration
	stageMax   [numStages]time.Duration
	stageCount [numStages]int

	// Per-stage BDD aggregates: worst-case footprint across modules,
	// summed op-cache traffic (see Event.BDDLive and friends).
	stageBDDLive   [numStages]int // max over modules
	stageBDDPeak   [numStages]int // max over modules
	stageBDDHits   [numStages]int
	stageBDDMisses [numStages]int

	peakNodes    int    // max over modules
	peakModule   string // module attaining peakNodes
	siftSwaps    int
	siftSkipped  int
	siftLBPrunes int
	siftPasses   int

	bddHits, bddMisses, bddResets, bddEvicts int

	reduceModules  int // modules that ran the reduction stage
	reduceBefore   int // vertices entering reduction
	reduceAfter    int // vertices leaving reduction
	reduceTests    int // TEST vertices eliminated
	reduceShares   int // vertices merged by hash-consing
	reduceAssigns  int // dead ASSIGN vertices dropped
	reduceRedirect int // infeasible edges redirected

	specModules   int   // modules that ran the specialization stage
	specSamples   int64 // profiled reactions consumed
	specTests     int   // TEST vertices with profile weight
	specReordered int   // TEST vertices given a hot order

	outcomes [NumOutcomes]int // EvCache events by Outcome

	cacheStats *CacheStats // last EvRunEnd snapshot (cumulative per cache)

	// lockWaitNs measures contention on the collector's own mutex —
	// the one lock every worker shares on every event.
	lockWaitNs int64

	errs []string
}

// NewCollector returns an empty Collector.
func NewCollector() *Collector { return &Collector{} }

// Event implements Trace.
func (c *Collector) Event(e Event) {
	t := time.Now()
	c.mu.Lock()
	c.lockWaitNs += time.Since(t).Nanoseconds()
	defer c.mu.Unlock()
	switch e.Kind {
	case EvRunStart:
		c.runs++
		c.modules += e.Modules
		c.workers = e.Workers
	case EvRunEnd:
		c.wall += e.Duration
		if e.Cache != nil {
			st := *e.Cache
			c.cacheStats = &st
		}
	case EvStage:
		if e.Stage >= 0 && e.Stage < numStages {
			c.stageTotal[e.Stage] += e.Duration
			c.stageCount[e.Stage]++
			if e.Duration > c.stageMax[e.Stage] {
				c.stageMax[e.Stage] = e.Duration
			}
			if e.BDDLive > c.stageBDDLive[e.Stage] {
				c.stageBDDLive[e.Stage] = e.BDDLive
			}
			if e.BDDPeakNodes > c.stageBDDPeak[e.Stage] {
				c.stageBDDPeak[e.Stage] = e.BDDPeakNodes
			}
			c.stageBDDHits[e.Stage] += e.BDDCacheHits
			c.stageBDDMisses[e.Stage] += e.BDDCacheMisses
		}
	case EvBDD:
		if e.PeakNodes > c.peakNodes {
			c.peakNodes = e.PeakNodes
			c.peakModule = e.Module
		}
		c.siftSwaps += e.SiftSwaps
		c.siftSkipped += e.SiftSwapsSkipped
		c.siftLBPrunes += e.SiftLBPrunes
		c.siftPasses += e.SiftPasses
		c.bddHits += e.CacheHits
		c.bddMisses += e.CacheMisses
		c.bddResets += e.CacheResets
		c.bddEvicts += e.CacheEvictions
	case EvReduce:
		c.reduceModules++
		c.reduceBefore += e.Reduce.VerticesBefore
		c.reduceAfter += e.Reduce.VerticesAfter
		c.reduceTests += e.Reduce.TestsEliminated
		c.reduceShares += e.Reduce.Shares
		c.reduceAssigns += e.Reduce.AssignsDropped
		c.reduceRedirect += e.Reduce.EdgesRedirected
	case EvSpecialize:
		c.specModules++
		c.specSamples += e.Specialize.Samples
		c.specTests += e.Specialize.Tests
		c.specReordered += e.Specialize.Reordered
	case EvCache:
		if e.Outcome >= 0 && e.Outcome < NumOutcomes {
			c.outcomes[e.Outcome]++
		}
	case EvModuleError:
		c.errs = append(c.errs, fmt.Sprintf("%s: %v", e.Module, e.Err))
	}
}

// Outcomes returns the cache outcomes observed so far, indexed by
// Outcome.
func (c *Collector) Outcomes() [NumOutcomes]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.outcomes
}

// Modules returns the total number of modules dispatched across runs.
func (c *Collector) Modules() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.modules
}

// BDDStageStats summarises the BDD kernel's footprint in one pipeline
// stage, aggregated across every module the Collector observed: the
// worst per-module live and peak physical node counts at stage end,
// and the stage's aggregate operation-cache traffic and hit rate.
type BDDStageStats struct {
	Stage        string  `json:"stage"`
	MaxLiveNodes int     `json:"max_live_nodes"`
	MaxPeakNodes int     `json:"max_peak_nodes"`
	CacheHits    int     `json:"cache_hits"`
	CacheMisses  int     `json:"cache_misses"`
	CacheHitPct  float64 `json:"cache_hit_pct"`
}

// BDDStages returns the per-stage BDD statistics for the stages that
// touched a BDD manager, in execution order. polisd serves this on
// /stats.
func (c *Collector) BDDStages() []BDDStageStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bddStagesLocked()
}

func (c *Collector) bddStagesLocked() []BDDStageStats {
	var out []BDDStageStats
	for s := Stage(0); s < numStages; s++ {
		if c.stageBDDLive[s] == 0 && c.stageBDDHits[s]+c.stageBDDMisses[s] == 0 {
			continue
		}
		st := BDDStageStats{
			Stage:        s.String(),
			MaxLiveNodes: c.stageBDDLive[s],
			MaxPeakNodes: c.stageBDDPeak[s],
			CacheHits:    c.stageBDDHits[s],
			CacheMisses:  c.stageBDDMisses[s],
		}
		if tot := st.CacheHits + st.CacheMisses; tot > 0 {
			st.CacheHitPct = 100 * float64(st.CacheHits) / float64(tot)
		}
		out = append(out, st)
	}
	return out
}

// Report renders the one-screen statistics summary.
func (c *Collector) Report() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	var b strings.Builder
	var serial time.Duration
	runs := 0
	for s := Stage(0); s < numStages; s++ {
		serial += c.stageTotal[s]
		runs += c.stageCount[s]
	}
	fmt.Fprintf(&b, "pipeline: %d module(s), %d worker(s), wall %s",
		c.modules, c.workers, round(c.wall))
	if c.wall > 0 && serial > 0 {
		fmt.Fprintf(&b, ", stage-sum %s (%.1fx)", round(serial),
			float64(serial)/float64(c.wall))
	}
	b.WriteString("\n")
	// A run whose stages all ran elsewhere (cache hits, shard worker
	// processes) has no stage table to show.
	if runs > 0 {
		fmt.Fprintf(&b, "  %-9s %10s %10s %10s %6s\n", "stage", "total", "max", "mean", "runs")
		for s := Stage(0); s < numStages; s++ {
			mean := time.Duration(0)
			if c.stageCount[s] > 0 {
				mean = c.stageTotal[s] / time.Duration(c.stageCount[s])
			}
			fmt.Fprintf(&b, "  %-9s %10s %10s %10s %6d\n",
				s, round(c.stageTotal[s]), round(c.stageMax[s]), round(mean), c.stageCount[s])
		}
	}
	if c.peakNodes > 0 {
		fmt.Fprintf(&b, "  bdd: peak %d live nodes (%s), %d sift swaps (%d skipped), %d passes, %d lb-prunes\n",
			c.peakNodes, c.peakModule, c.siftSwaps, c.siftSkipped, c.siftPasses, c.siftLBPrunes)
	}
	if tot := c.bddHits + c.bddMisses; tot > 0 {
		fmt.Fprintf(&b, "  bdd op-cache: %d hit(s), %d miss(es) (%.1f%% hit rate), %d reset(s), %d eviction(s)\n",
			c.bddHits, c.bddMisses, 100*float64(c.bddHits)/float64(tot), c.bddResets, c.bddEvicts)
	}
	if stages := c.bddStagesLocked(); len(stages) > 0 {
		b.WriteString("  bdd stages:")
		for i, st := range stages {
			if i > 0 {
				b.WriteString(" |")
			}
			fmt.Fprintf(&b, " %s live %d peak %d cache %.1f%%",
				st.Stage, st.MaxLiveNodes, st.MaxPeakNodes, st.CacheHitPct)
		}
		b.WriteString("\n")
	}
	if c.reduceModules > 0 {
		fmt.Fprintf(&b, "  reduce: %d module(s), vertices %d -> %d, %d test(s) eliminated, %d share(s), %d assign(s) dropped, %d edge(s) redirected\n",
			c.reduceModules, c.reduceBefore, c.reduceAfter,
			c.reduceTests, c.reduceShares, c.reduceAssigns, c.reduceRedirect)
	}
	if c.specModules > 0 {
		fmt.Fprintf(&b, "  specialize: %d module(s), %d reaction sample(s), %d/%d weighted TEST vertice(s) reordered\n",
			c.specModules, c.specSamples, c.specReordered, c.specTests)
	}
	o := &c.outcomes
	fmt.Fprintf(&b, "  cache: %d hit(s) (%d from disk), %d miss(es), %d dedup join(s)\n",
		o[OutcomeMemHit]+o[OutcomeDiskHit], o[OutcomeDiskHit], o[OutcomeMiss], o[OutcomeDedup])
	if cs := c.cacheStats; cs != nil {
		fmt.Fprintf(&b, "  contention: cache get-wait %s, put-wait %s, trace lock-wait %s; %d corrupt disk entr%s\n",
			round(cs.GetWait), round(cs.PutWait), round(time.Duration(c.lockWaitNs)),
			cs.CorruptMisses, plural(cs.CorruptMisses, "y", "ies"))
	}
	if len(c.errs) == 0 {
		b.WriteString("  errors: none\n")
	} else {
		sorted := append([]string(nil), c.errs...)
		sort.Strings(sorted)
		fmt.Fprintf(&b, "  errors: %d\n", len(sorted))
		for _, e := range sorted {
			fmt.Fprintf(&b, "    %s\n", e)
		}
	}
	return b.String()
}

// plural picks the singular or plural suffix for n.
func plural(n int64, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// round trims durations to a readable precision.
func round(d time.Duration) time.Duration {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond)
	case d >= time.Millisecond:
		return d.Round(10 * time.Microsecond)
	default:
		return d.Round(100 * time.Nanosecond)
	}
}
