// Package shard is the map-reduce synthesis driver: it partitions a
// CFSM network into deterministic module shards, maps each shard
// through the content-addressed artifact cache in its own OS process,
// and reduces the per-shard artifacts and statistics into one
// deterministic report.
//
// The shape follows the map-reduce parallelisation of control-software
// synthesis: mappers are `polisc shard-worker` processes publishing
// artifacts into the content-addressed store, the shuffle layer is the
// shared on-disk cache keyed by module fingerprint, and the reducer
// collects artifacts by key in network order (RunProcs). The artifacts
// are byte-identical to an in-process pipeline.Run for any shard count,
// because every module's artifact is addressed by the same fingerprint
// regardless of which shard synthesized it. In-process parallelism is
// the pipeline's worker pool (polisc -j), not a shard mode.
package shard

import (
	"fmt"
	"hash/fnv"
	"strings"
	"time"

	"polis/internal/cfsm"
	"polis/internal/pipeline"
)

// Partition splits the machine list into deterministic module-index
// groups, one per shard: each module goes to the shard given by an
// FNV-1a hash of its name modulo the shard count, so a module keeps
// its shard when others are inserted elsewhere in the network. Every
// index in [0, len(machines)) appears in exactly one group; groups may
// be empty. The partition only balances work: every artifact is
// addressed by its fingerprint, so output does not depend on it.
func Partition(machines []*cfsm.CFSM, shards int) [][]int {
	if shards < 1 {
		shards = 1
	}
	out := make([][]int, shards)
	for i, m := range machines {
		h := fnv.New32a()
		h.Write([]byte(m.Name))
		s := int(h.Sum32() % uint32(shards))
		out[s] = append(out[s], i)
	}
	return out
}

// Options configures one sharded synthesis run.
type Options struct {
	// Shards is the number of shards; <= 0 means GOMAXPROCS. The
	// effective count never exceeds the module count.
	Shards int
	// Pipeline is the per-module synthesis configuration shared by all
	// shards (it is part of every module's cache fingerprint).
	Pipeline pipeline.Options
	// CacheDir is the on-disk cache directory, required: worker
	// processes publish artifacts there and the reducer fetches them
	// back by fingerprint.
	CacheDir string
}

// ShardStat is the per-shard slice of the report: which modules the
// shard owned, how long its map phase ran, and how its cache lookups
// were served.
type ShardStat struct {
	Shard   int
	Modules int
	Wall    time.Duration

	// Outcomes counts the shard's modules by cache outcome.
	Outcomes [pipeline.NumOutcomes]int
}

// attribution renders cache outcome counts as miss|mem|disk|dedup
// counters.
func attribution(o [pipeline.NumOutcomes]int) string {
	return fmt.Sprintf("miss %d | mem %d | disk %d | dedup %d", o[pipeline.OutcomeMiss],
		o[pipeline.OutcomeMemHit], o[pipeline.OutcomeDiskHit], o[pipeline.OutcomeDedup])
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
	// Wall is the whole run's wall time (map plus reduce).
	Wall time.Duration
	// Collector holds the run-level and cache counters of every shard;
	// its Report() is the same shape an unsharded run prints, with the
	// per-stage timing left in the worker processes. Its Outcomes() is
	// the run's cache attribution, merged across shards.
	Collector *pipeline.Collector
}

// Summary renders the deterministic one-line shard summary followed
// by one line per shard (per-shard wall times vary run to run, so
// callers wanting byte-stable output print only with stats enabled).
func (r *Report) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "shard: %d shard(s) (process), %d module(s), %s\n",
		len(r.Shards), len(r.Artifacts), attribution(r.Collector.Outcomes()))
	for _, st := range r.Shards {
		fmt.Fprintf(&b, "  shard %d: %d module(s) in %s, %s\n",
			st.Shard, st.Modules, st.Wall.Round(10*time.Microsecond), attribution(st.Outcomes))
	}
	return b.String()
}
