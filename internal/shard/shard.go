// Package shard is the map-reduce synthesis driver: it partitions a
// CFSM network into deterministic module shards, maps each shard
// through the content-addressed artifact cache on its own worker, and
// reduces the per-shard artifacts and statistics into one
// deterministic report.
//
// The shape follows the map-reduce parallelisation of control-software
// synthesis: mappers are shard workers publishing artifacts into the
// content-addressed store, the shuffle layer is the shared cache keyed
// by module fingerprint, and the reducer collects artifacts by key in
// network order. Shards run as in-process goroutines (Run) or as
// separate OS processes sharing one on-disk cache directory (RunProcs
// plus the `polisc shard-worker` subcommand); both produce
// byte-identical artifacts and identical merged cache attribution for
// any shard count, because every module's artifact is addressed by the
// same fingerprint regardless of which shard synthesized it.
package shard

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"polis/internal/cfsm"
	"polis/internal/pipeline"
)

// Strategy selects how modules are partitioned into shards. Both
// strategies are deterministic: the same network and shard count
// always yield the same partition.
type Strategy int

const (
	// ByHash assigns each module by an FNV-1a hash of its name modulo
	// the shard count: stable under module insertion elsewhere in the
	// network, at the cost of unbalanced shards on skewed names.
	ByHash Strategy = iota
	// BySize balances shards by a structural weight (transitions plus
	// tests plus actions, a proxy for synthesis cost): modules are
	// placed heaviest-first onto the lightest shard, ties resolved by
	// lowest shard index, so the partition is deterministic.
	BySize
)

func (s Strategy) String() string {
	switch s {
	case ByHash:
		return "hash"
	case BySize:
		return "size"
	default:
		return fmt.Sprintf("strategy%d", int(s))
	}
}

// ParseStrategy resolves a strategy name ("hash" or "size").
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "", "hash":
		return ByHash, nil
	case "size":
		return BySize, nil
	default:
		return 0, fmt.Errorf("shard: unknown strategy %q (want hash or size)", name)
	}
}

// weight is the structural proxy for a module's synthesis cost.
func weight(m *cfsm.CFSM) int {
	return len(m.Trans) + len(m.Tests) + len(m.Actions)
}

// Partition splits the machine list into deterministic module-index
// groups, one per shard. Every index in [0, len(machines)) appears in
// exactly one group; groups may be empty under ByHash.
func Partition(machines []*cfsm.CFSM, shards int, strat Strategy) [][]int {
	if shards < 1 {
		shards = 1
	}
	out := make([][]int, shards)
	switch strat {
	case BySize:
		idx := make([]int, len(machines))
		for i := range idx {
			idx[i] = i
		}
		sort.SliceStable(idx, func(a, b int) bool {
			wa, wb := weight(machines[idx[a]]), weight(machines[idx[b]])
			if wa != wb {
				return wa > wb
			}
			return idx[a] < idx[b]
		})
		load := make([]int, shards)
		for _, mi := range idx {
			best := 0
			for s := 1; s < shards; s++ {
				if load[s] < load[best] {
					best = s
				}
			}
			out[best] = append(out[best], mi)
			load[best] += weight(machines[mi])
		}
		// Keep each shard's internal order the network order so a
		// worker's progression is predictable.
		for s := range out {
			sort.Ints(out[s])
		}
	default: // ByHash
		for i, m := range machines {
			h := fnv.New32a()
			h.Write([]byte(m.Name))
			s := int(h.Sum32() % uint32(shards))
			out[s] = append(out[s], i)
		}
	}
	return out
}

// Options configures one sharded synthesis run.
type Options struct {
	// Shards is the number of shards; <= 0 means GOMAXPROCS. The
	// effective count never exceeds the module count.
	Shards int
	// Strategy selects the partitioner; the zero value is ByHash.
	Strategy Strategy
	// Pipeline is the per-module synthesis configuration shared by all
	// shards (it is part of every module's cache fingerprint).
	Pipeline pipeline.Options
	// Cache is the shared shuffle layer. nil means a fresh cache over
	// CacheDir (in-memory only when CacheDir is empty). RunProcs
	// ignores Cache and always goes through CacheDir.
	Cache *pipeline.Cache
	// CacheDir is the on-disk cache directory. Required by RunProcs:
	// worker processes publish artifacts there and the reducer fetches
	// them back by fingerprint.
	CacheDir string
}

// ShardStat is the per-shard slice of the report: which modules the
// shard owned, how long its map phase ran, and how its cache lookups
// were served.
type ShardStat struct {
	Shard   int
	Modules int
	Wall    time.Duration

	Miss, Mem, Disk, Dedup int
}

// Attribution renders the merged miss|mem|disk|dedup counters.
func (s ShardStat) Attribution() string {
	return fmt.Sprintf("miss %d | mem %d | disk %d | dedup %d", s.Miss, s.Mem, s.Disk, s.Dedup)
}

// Report is the reduced result of a sharded run. Artifacts are in
// network machine order regardless of shard count or completion
// order, so output is deterministic and byte-identical to an
// unsharded run.
type Report struct {
	// Artifacts, one per module, in network order.
	Artifacts []*pipeline.Artifact
	// Shards holds the per-shard statistics, indexed by shard.
	Shards []ShardStat
	// Total is the merged cache attribution across shards.
	Total ShardStat
	// Wall is the whole run's wall time (map plus reduce).
	Wall time.Duration
	// Collector holds the statistics of every shard; its Report() is
	// the same shape an unsharded run prints. Process-mode runs only
	// carry run-level and cache counters (per-stage timing stays in the
	// worker processes).
	Collector *pipeline.Collector
	// Procs reports whether shards ran as separate OS processes.
	Procs bool
}

// Summary renders the deterministic one-line shard summary followed
// by one line per shard (per-shard wall times vary run to run, so
// callers wanting byte-stable output print only with stats enabled).
func (r *Report) Summary() string {
	var b strings.Builder
	mode := "in-process"
	if r.Procs {
		mode = "process"
	}
	fmt.Fprintf(&b, "shard: %d shard(s) (%s), %d module(s), %s\n",
		len(r.Shards), mode, len(r.Artifacts), r.Total.Attribution())
	for _, st := range r.Shards {
		fmt.Fprintf(&b, "  shard %d: %d module(s) in %s, %s\n",
			st.Shard, st.Modules, st.Wall.Round(10*time.Microsecond), st.Attribution())
	}
	return b.String()
}

func (st *ShardStat) count(out pipeline.Outcome) {
	switch out {
	case pipeline.OutcomeMiss:
		st.Miss++
	case pipeline.OutcomeMemHit:
		st.Mem++
	case pipeline.OutcomeDiskHit:
		st.Disk++
	case pipeline.OutcomeDedup:
		st.Dedup++
	}
}

// Run synthesizes the network's modules in deterministic shards, one
// goroutine per shard, all sharing one cache as the shuffle layer.
// Artifacts come back in network order; every shard sends its events
// to Report.Collector, which is safe for concurrent use. The first
// module failure stops every shard from starting new modules
// (fail-fast) and the aggregate error names each failed module.
func Run(ctx context.Context, net *cfsm.Network, opt Options) (*Report, error) {
	machines := net.Machines
	shards := opt.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > len(machines) {
		shards = len(machines)
	}
	if shards < 1 {
		shards = 1
	}
	cache := opt.Cache
	if cache == nil {
		var err error
		if cache, err = pipeline.NewCache(opt.CacheDir); err != nil {
			return nil, err
		}
	}
	parts := Partition(machines, shards, opt.Strategy)

	master := pipeline.NewCollector()
	master.Event(pipeline.Event{Kind: pipeline.EvRunStart, Modules: len(machines), Workers: shards})
	start := time.Now()

	arts := make([]*pipeline.Artifact, len(machines))
	moduleErrs := make([]error, len(machines))
	stats := make([]ShardStat, shards)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for si := range parts {
		wg.Add(1)
		go func(si int, part []int) {
			defer wg.Done()
			st := &stats[si]
			st.Shard = si
			st.Modules = len(part)
			t0 := time.Now()
			defer func() { st.Wall = time.Since(t0) }()
			for _, mi := range part {
				if failed.Load() || ctx.Err() != nil {
					return // fail-fast/cancelled: stop mapping this shard
				}
				a, out, err := cache.SynthesizeCached(ctx, machines[mi], opt.Pipeline, master)
				if err != nil {
					if ctx.Err() == nil {
						moduleErrs[mi] = fmt.Errorf("module %s: %w", machines[mi].Name, err)
						master.Event(pipeline.Event{Kind: pipeline.EvModuleError, Module: machines[mi].Name, Err: err})
					}
					failed.Store(true)
					return
				}
				arts[mi] = a
				st.count(out)
			}
		}(si, parts[si])
	}
	wg.Wait()

	cst := cache.Stats()
	master.Event(pipeline.Event{Kind: pipeline.EvRunEnd, Duration: time.Since(start), Cache: &cst})

	rep := &Report{
		Artifacts: arts,
		Shards:    stats,
		Wall:      time.Since(start),
		Collector: master,
	}
	for _, st := range stats {
		rep.Total.Miss += st.Miss
		rep.Total.Mem += st.Mem
		rep.Total.Disk += st.Disk
		rep.Total.Dedup += st.Dedup
		rep.Total.Modules += st.Modules
	}
	if err := ctx.Err(); err != nil {
		done := 0
		for _, a := range arts {
			if a != nil {
				done++
			}
		}
		return nil, fmt.Errorf("shard: run cancelled after %d of %d module(s): %w",
			done, len(machines), err)
	}
	if failed.Load() {
		var agg []error
		for _, e := range moduleErrs {
			if e != nil {
				agg = append(agg, e)
			}
		}
		return nil, fmt.Errorf("shard: %d of %d module(s) failed: %w",
			len(agg), len(machines), errors.Join(agg...))
	}
	return rep, nil
}
