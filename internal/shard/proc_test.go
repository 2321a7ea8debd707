package shard_test

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"polis/internal/codegen"
	"polis/internal/pipeline"
	"polis/internal/profile"
	"polis/internal/sgraph"
	"polis/internal/shard"
	"polis/internal/vm"
)

// Worker modes of the test binary, chosen by its first argument.
const (
	// workerOK is a real shard worker.
	workerOK = "shard-worker-proc"
	// workerLongLine writes one result line longer than the driver
	// reads, and blocks on the full pipe unless the driver acts.
	workerLongLine = "shard-worker-long-line"
	// workerBadOutcome reports a cache outcome no Outcome has.
	workerBadOutcome = "shard-worker-bad-outcome"
)

// TestMain doubles as the shard worker: RunProcs re-executes this test
// binary with one of the worker modes above, which speak the
// Job/Result protocol on stdin/stdout — the same re-exec idiom the
// real `polisc shard-worker` subcommand uses.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case workerOK:
			if err := shard.Worker(os.Stdin, os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			os.Exit(0)
		case workerLongLine:
			line := `{"shard":0,"module":"` + strings.Repeat("x", 2<<20+1) + `","cache":"miss"}` + "\n"
			os.Stdout.WriteString(line)
			os.Exit(0)
		case workerBadOutcome:
			os.Stdout.WriteString(`{"shard":0,"module":"m0","cache":"hit"}` + "\n")
			os.Exit(0)
		}
	}
	os.Exit(m.Run())
}

func workerCmd(t *testing.T, mode string) []string {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return []string{exe, mode}
}

// TestRunProcsMatchesInProcess: two worker processes sharing one cache
// directory produce the same artifacts, in the same order, as the
// in-process pipeline — the disk cache really is the shuffle layer.
func TestRunProcsMatchesInProcess(t *testing.T) {
	net := testNetwork(t, 11, 8)
	inproc, err := pipeline.Run(net, pipeline.Options{}, pipeline.Config{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	procs, err := shard.RunProcs(context.Background(), net,
		shard.Options{Shards: 2, CacheDir: t.TempDir()}, workerCmd(t, workerOK))
	if err != nil {
		t.Fatal(err)
	}
	sameArtifacts(t, "process mode", procs.Artifacts, inproc)
	if got := procs.Collector.Outcomes(); got[pipeline.OutcomeMiss] != len(net.Machines) {
		t.Errorf("cold process run attribution %v, want %d misses", got, len(net.Machines))
	}
	if !strings.Contains(procs.Summary(), "(process)") {
		t.Errorf("summary does not name the mode: %q", procs.Summary())
	}
}

// TestRunProcsMatchesInProcessOptions: every option the job carries
// reaches the workers intact, so a non-default configuration produces
// the same artifacts as the in-process pipeline under the same options.
func TestRunProcsMatchesInProcessOptions(t *testing.T) {
	net := testNetwork(t, 13, 6)
	opt := pipeline.Options{
		Target:        vm.R3K(),
		Ordering:      sgraph.OrderSiftInputsFirst,
		Codegen:       codegen.Options{OptimizeCopies: true, IfThreshold: 3},
		UseFalsePaths: true,
		Reduce:        true,
	}
	inproc, err := pipeline.Run(net, opt, pipeline.Config{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	procs, err := shard.RunProcs(context.Background(), net,
		shard.Options{Shards: 2, Pipeline: opt, CacheDir: t.TempDir()}, workerCmd(t, workerOK))
	if err != nil {
		t.Fatal(err)
	}
	sameArtifacts(t, "process mode, tuned options", procs.Artifacts, inproc)
	if got := procs.Collector.Outcomes(); got[pipeline.OutcomeMiss] != len(net.Machines) {
		t.Errorf("cold process run attribution %v, want %d misses", got, len(net.Machines))
	}
}

// TestRunProcsLongResultLine: a result line longer than the driver
// reads stops the scan while the worker is still blocked writing it.
// RunProcs must kill the worker and return an error naming the shard,
// not wait on it until the context ends.
func TestRunProcsLongResultLine(t *testing.T) {
	net := testNetwork(t, 5, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, err := shard.RunProcs(ctx, net, shard.Options{Shards: 1, CacheDir: t.TempDir()}, workerCmd(t, workerLongLine))
	if ctx.Err() != nil {
		t.Fatalf("RunProcs waited for the context to end: %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "shard 0") {
		t.Fatalf("want an error naming shard 0, got %v", err)
	}
}

// TestRunProcsBadOutcome: a result line whose cache outcome is not one
// of miss|mem|disk|dedup is an error naming the module, not a miss.
func TestRunProcsBadOutcome(t *testing.T) {
	net := testNetwork(t, 5, 1)
	_, err := shard.RunProcs(context.Background(), net,
		shard.Options{Shards: 1, CacheDir: t.TempDir()}, workerCmd(t, workerBadOutcome))
	if err == nil || !strings.Contains(err.Error(), `module m0: pipeline: unknown cache outcome "hit"`) {
		t.Fatalf("want an unknown-outcome error naming module m0, got %v", err)
	}
}

// TestRunProcsModuleError: a module that fails in the worker comes back
// as an in-band Result error and the driver aggregates it by name.
func TestRunProcsModuleError(t *testing.T) {
	net := badNetwork(t)
	_, err := shard.RunProcs(context.Background(), net, shard.Options{Shards: 2, CacheDir: t.TempDir()}, workerCmd(t, workerOK))
	if err == nil {
		t.Fatal("want an aggregate error")
	}
	if !strings.Contains(err.Error(), "module bad") {
		t.Errorf("error does not name the failing module: %v", err)
	}
}

// TestRunProcsRequiresCacheDir: without a shared directory there is no
// shuffle layer, so process mode must refuse to start.
func TestRunProcsRequiresCacheDir(t *testing.T) {
	net := testNetwork(t, 5, 2)
	_, err := shard.RunProcs(context.Background(), net, shard.Options{Shards: 2}, workerCmd(t, workerOK))
	if err == nil || !strings.Contains(err.Error(), "cache") {
		t.Fatalf("want a cache-dir error, got %v", err)
	}
}

// TestRunProcsRejectsUnwirableOptions: options that do not survive the
// wire codec must be rejected up front, not silently dropped (they are
// part of the fingerprint, so dropping them would poison the cache).
func TestRunProcsRejectsUnwirableOptions(t *testing.T) {
	net := testNetwork(t, 5, 2)
	opt := shard.Options{Shards: 1, CacheDir: t.TempDir()}
	opt.Pipeline.Profile = &profile.Profile{}
	_, err := shard.RunProcs(context.Background(), net, opt, workerCmd(t, workerOK))
	if err == nil || !strings.Contains(err.Error(), "not supported in process mode") {
		t.Fatalf("want an unsupported-options error, got %v", err)
	}
}
