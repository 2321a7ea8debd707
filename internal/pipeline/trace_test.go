package pipeline

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"polis/internal/sgraph"
)

// TestCollectorReportGolden pins the text of Collector.Report and the
// BDDStages rows for a fixed synthetic event sequence — two runs,
// stage events with fixed durations and BDD snapshots, BDD, reduce and
// specialize statistics, every cache outcome and one module error —
// against testdata/collector_report.golden, so a reshaped Collector
// must reproduce what polisc -stats and polisd /stats print today.
// Regenerate deliberately with `go test ./internal/pipeline -run
// CollectorReportGolden -update`.
func TestCollectorReportGolden(t *testing.T) {
	c := NewCollector()
	run := func(modules []string, wall time.Duration, cs *CacheStats) {
		c.Event(Event{Kind: EvRunStart, Modules: len(modules), Workers: 2})
		for i, m := range modules {
			step := time.Duration(i+1) * 1500 * time.Microsecond
			for s := Stage(0); s < numStages; s++ {
				e := Event{Kind: EvStage, Module: m, Stage: s, Duration: step * time.Duration(s+1)}
				if s <= StageSGraph {
					e.BDDLive = 100*(i+1) + 10*int(s)
					e.BDDPeakNodes = 150*(i+1) + 10*int(s)
					e.BDDCacheHits = 40 * (i + 1)
					e.BDDCacheMisses = 13 * (int(s) + 1)
				}
				c.Event(e)
			}
			c.Event(Event{Kind: EvBDD, Module: m, PeakNodes: 300 + 70*i, SiftSwaps: 12 + i,
				SiftPasses: 2, SiftSwapsSkipped: 5, SiftLBPrunes: 3 + i,
				CacheHits: 900 + i, CacheMisses: 310, CacheResets: 1, CacheEvictions: 7 * i})
			c.Event(Event{Kind: EvReduce, Module: m, Reduce: sgraph.ReduceStats{
				VerticesBefore: 40 + i, VerticesAfter: 31, TestsEliminated: 3,
				Shares: 4 + i, AssignsDropped: 1, EdgesRedirected: i}})
			c.Event(Event{Kind: EvSpecialize, Module: m, Specialize: sgraph.SpecializeStats{
				Samples: 1000, Tests: 6, Reordered: 2 + i}})
		}
		c.Event(Event{Kind: EvRunEnd, Duration: wall, Cache: cs})
	}
	run([]string{"belt", "timer", "fuel"}, 42*time.Millisecond, nil)
	for o := Outcome(0); o < NumOutcomes; o++ {
		c.Event(Event{Kind: EvCache, Module: "fuel", Outcome: o})
	}
	c.Event(Event{Kind: EvModuleError, Module: "diag", Err: errors.New("synthetic failure")})
	run([]string{"pwm"}, 1234567*time.Microsecond, &CacheStats{
		Entries: 4, MemHits: 1, DiskHits: 1, Misses: 2, CorruptMisses: 1,
		GetWait: 2500 * time.Nanosecond, PutWait: 3 * time.Millisecond})
	// The collector times its own mutex; that reading is the one
	// measured value in the report.
	c.lockWaitNs = 0

	stages, err := json.MarshalIndent(c.BDDStages(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got := c.Report() + "\n" + string(stages) + "\n"
	path := filepath.Join("testdata", "collector_report.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to record): %v", err)
	}
	if got != string(want) {
		t.Errorf("Collector report diverged from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
