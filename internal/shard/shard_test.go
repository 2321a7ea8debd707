package shard_test

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/expr"
	"polis/internal/pipeline"
	"polis/internal/randcfsm"
	"polis/internal/shard"
)

func testNetwork(t *testing.T, seed int64, n int) *cfsm.Network {
	t.Helper()
	net, _, err := randcfsm.NewNetwork(rand.New(rand.NewSource(seed)), n, randcfsm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// badNetwork returns a two-module network whose second module passes
// validation but fails deterministically in codegen: its assign
// references a variable no symbol table defines.
func badNetwork(t *testing.T) *cfsm.Network {
	t.Helper()
	net := cfsm.NewNetwork("badnet")
	a := net.NewSignal("a", true)
	b := net.NewSignal("b", true)
	c := net.NewSignal("c", true)

	good := cfsm.New("good")
	good.AttachInput(a)
	good.AttachOutput(b)
	tg := good.Present(a)
	good.AddTransition([]cfsm.Cond{cfsm.On(tg, 1)}, good.Emit(b))

	bad := cfsm.New("bad")
	bad.AttachInput(c)
	v := bad.AddState("s0", 0, 0)
	tb := bad.Present(c)
	bad.AddTransition([]cfsm.Cond{cfsm.On(tb, 1)}, bad.Assign(v, expr.Ref("no_such_var")))

	for _, m := range []*cfsm.CFSM{good, bad} {
		if err := net.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Validate(); err != nil {
		t.Fatal(err)
	}
	return net
}

// TestPartition: the partition covers every module exactly once,
// deterministically.
func TestPartition(t *testing.T) {
	net := testNetwork(t, 3, 17)
	for _, shards := range []int{1, 2, 5, 17, 40} {
		parts := shard.Partition(net.Machines, shards)
		if len(parts) != max(shards, 1) {
			t.Fatalf("%d: %d groups", shards, len(parts))
		}
		seen := make(map[int]int)
		for _, part := range parts {
			for _, mi := range part {
				seen[mi]++
			}
		}
		if len(seen) != len(net.Machines) {
			t.Errorf("%d: %d of %d modules assigned", shards, len(seen), len(net.Machines))
		}
		for mi, nt := range seen {
			if nt != 1 {
				t.Errorf("%d: module %d assigned %d times", shards, mi, nt)
			}
		}
		again := shard.Partition(net.Machines, shards)
		for s := range parts {
			if len(parts[s]) != len(again[s]) {
				t.Fatalf("%d: partition not deterministic", shards)
			}
			for i := range parts[s] {
				if parts[s][i] != again[s][i] {
					t.Fatalf("%d: partition not deterministic", shards)
				}
			}
		}
	}
}

// sameArtifacts fails unless got holds want's artifacts, byte for
// byte, in the same order.
func sameArtifacts(t *testing.T, label string, got, want []*pipeline.Artifact) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d artifacts, want %d", label, len(got), len(want))
	}
	for i, a := range got {
		b := want[i]
		if a.Module != b.Module {
			t.Fatalf("%s: artifact %d is %s, want %s (order broken)", label, i, a.Module, b.Module)
		}
		if a.C != b.C || a.Listing != b.Listing || a.CodeSize != b.CodeSize ||
			a.Estimate != b.Estimate || a.Measured != b.Measured || a.Stats != b.Stats {
			t.Errorf("%s: module %s artifact differs", label, a.Module)
		}
	}
}

// cacheLine is the cache-counter line of a Collector report.
func cacheLine(t *testing.T, c *pipeline.Collector) string {
	t.Helper()
	for _, line := range strings.Split(c.Report(), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "cache:") {
			return line
		}
	}
	t.Fatalf("no cache line in report:\n%s", c.Report())
	return ""
}

// TestRunDeterministicAcrossShardCounts: the same network through the
// plain pipeline and through one and eight worker processes produces
// byte-identical artifacts in the same order, with identical merged attribution and the unsharded run's
// cache counters.
func TestRunDeterministicAcrossShardCounts(t *testing.T) {
	net := testNetwork(t, 7, 12)
	baseCol := pipeline.NewCollector()
	baseCache, err := pipeline.NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	base, err := pipeline.Run(net, pipeline.Options{}, pipeline.Config{Jobs: 2, Cache: baseCache, Trace: baseCol})
	if err != nil {
		t.Fatal(err)
	}

	var totals []shard.ShardStat
	for _, shards := range []int{1, 8} {
		label := fmt.Sprintf("shards=%d", shards)
		rep, err := shard.RunProcs(context.Background(), net, shard.Options{
			Shards: shards, CacheDir: t.TempDir(),
		}, workerCmd(t, workerOK))
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameArtifacts(t, label, rep.Artifacts, base)
		if rep.Total.Outcomes != [pipeline.NumOutcomes]int{pipeline.OutcomeMiss: len(base)} {
			t.Errorf("%s: cold attribution %s, want all misses", label, rep.Total.Attribution())
		}
		if got := rep.Collector.Modules(); got != len(base) {
			t.Errorf("%s: merged collector saw %d modules, want %d", label, got, len(base))
		}
		if got, want := cacheLine(t, rep.Collector), cacheLine(t, baseCol); got != want {
			t.Errorf("%s: merged collector counted %q, unsharded run %q", label, got, want)
		}
		totals = append(totals, rep.Total)
	}
	for _, tot := range totals[1:] {
		if tot != totals[0] {
			t.Errorf("attribution totals differ across shard counts: %+v vs %+v", tot, totals[0])
		}
	}
}

// TestRunSharedCacheWarm: a second sharded run over the same cache
// directory is served entirely from the disk the first run's workers
// published to, and the attribution says so.
func TestRunSharedCacheWarm(t *testing.T) {
	net := testNetwork(t, 9, 10)
	opt := shard.Options{Shards: 4, CacheDir: t.TempDir()}
	cold, err := shard.RunProcs(context.Background(), net, opt, workerCmd(t, workerOK))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Total.Outcomes[pipeline.OutcomeMiss] != 10 {
		t.Fatalf("cold attribution %s, want 10 misses", cold.Total.Attribution())
	}
	warm, err := shard.RunProcs(context.Background(), net, opt, workerCmd(t, workerOK))
	if err != nil {
		t.Fatal(err)
	}
	if warm.Total.Outcomes != [pipeline.NumOutcomes]int{pipeline.OutcomeDiskHit: 10} {
		t.Fatalf("warm attribution %s, want 10 disk hits", warm.Total.Attribution())
	}
	sameArtifacts(t, "warm", warm.Artifacts, cold.Artifacts)
	if !strings.Contains(warm.Summary(), "disk 10") {
		t.Errorf("summary misses the attribution: %q", warm.Summary())
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
