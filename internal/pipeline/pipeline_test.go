package pipeline

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"polis/internal/cfsm"
	"polis/internal/randcfsm"
)

// testNetwork generates a deterministic random network of n machines.
func testNetwork(t testing.TB, seed int64, n int) *cfsm.Network {
	t.Helper()
	net, _, err := randcfsm.NewNetwork(rand.New(rand.NewSource(seed)), n, randcfsm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// cacheCounters reads the collector's cache hits (total and from the
// on-disk layer) and misses.
func cacheCounters(c *Collector) (hits, diskHits, misses int) {
	o := c.Outcomes()
	return o[OutcomeMemHit] + o[OutcomeDiskHit], o[OutcomeDiskHit], o[OutcomeMiss]
}

// TestRunDeterministic requires byte-identical artifacts in identical
// order for any worker count.
func TestRunDeterministic(t *testing.T) {
	net := testNetwork(t, 7, 9)
	serial, err := Run(net, Options{}, Config{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, jobs := range []int{2, 8} {
		parallel, err := Run(net, Options{}, Config{Jobs: jobs})
		if err != nil {
			t.Fatal(err)
		}
		if len(parallel) != len(serial) {
			t.Fatalf("j=%d: %d artifacts, want %d", jobs, len(parallel), len(serial))
		}
		for i := range serial {
			if parallel[i].Module != serial[i].Module {
				t.Errorf("j=%d: artifact %d is %s, want %s", jobs, i, parallel[i].Module, serial[i].Module)
			}
			if parallel[i].C != serial[i].C {
				t.Errorf("j=%d: module %s: C differs from serial run", jobs, serial[i].Module)
			}
			if parallel[i].Listing != serial[i].Listing {
				t.Errorf("j=%d: module %s: listing differs from serial run", jobs, serial[i].Module)
			}
			if parallel[i].CodeSize != serial[i].CodeSize {
				t.Errorf("j=%d: module %s: code size %d, want %d", jobs, serial[i].Module,
					parallel[i].CodeSize, serial[i].CodeSize)
			}
		}
	}
}

// TestRunMatchesSingleModule checks the pipeline produces exactly what
// the staged single-module entry point produces.
func TestRunMatchesSingleModule(t *testing.T) {
	net := testNetwork(t, 11, 4)
	arts, err := Run(net, Options{}, Config{Jobs: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i, m := range net.Machines {
		one, err := SynthesizeModule(m, Options{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if arts[i].C != one.C || arts[i].CodeSize != one.CodeSize {
			t.Errorf("module %s: pipeline artifact differs from SynthesizeModule", m.Name)
		}
	}
}

// badMachine builds a CFSM that fails validation (its transition
// guards a test interned in a different machine).
func badMachine(name string) *cfsm.CFSM {
	other := cfsm.New("donor")
	sig := other.AddInput("x", true)
	foreign := other.Present(sig)
	bad := cfsm.New(name)
	in := bad.AddInput("y", true)
	out := bad.AddOutput("z", true)
	bad.AddTransition([]cfsm.Cond{cfsm.On(foreign, 1)}, bad.Emit(out))
	_ = in
	return bad
}

// goodMachine builds a minimal valid CFSM.
func goodMachine(name string) *cfsm.CFSM {
	c := cfsm.New(name)
	in := c.AddInput("a", true)
	out := c.AddOutput("b", true)
	c.AddTransition([]cfsm.Cond{cfsm.On(c.Present(in), 1)}, c.Emit(out))
	return c
}

// TestErrorAttribution checks that a failing module is reported by
// name and fails the whole run.
func TestErrorAttribution(t *testing.T) {
	machines := []*cfsm.CFSM{goodMachine("ok1"), badMachine("broken"), goodMachine("ok2")}
	col := NewCollector()
	arts, err := RunModules(machines, Options{}, Config{Jobs: 2, Trace: col})
	if err == nil {
		t.Fatal("expected error from broken module")
	}
	if arts != nil {
		t.Errorf("artifacts should be nil on failure, got %d", len(arts))
	}
	if !strings.Contains(err.Error(), "module broken:") {
		t.Errorf("error lacks module attribution: %v", err)
	}
	if !strings.Contains(col.Report(), "broken:") {
		t.Errorf("collector report lacks the failed module:\n%s", col.Report())
	}
}

// TestFailFast checks that once a failure is observed no further
// modules start: with 1 worker and the failing module first, the
// remaining modules must not be synthesized.
func TestFailFast(t *testing.T) {
	machines := []*cfsm.CFSM{badMachine("broken")}
	for i := 0; i < 10; i++ {
		machines = append(machines, goodMachine("ok"+string(rune('a'+i))))
	}
	col := NewCollector()
	_, err := RunModules(machines, Options{}, Config{Jobs: 1, Trace: col})
	if err == nil {
		t.Fatal("expected error")
	}
	// Only the broken module ran its reactive stage (and failed there);
	// the trailing ten modules were skipped by fail-fast.
	if got := col.stageTotal[StageCodegen]; got != 0 {
		t.Errorf("codegen stage ran for %v despite fail-fast", got)
	}
}

// TestCollectorReport sanity-checks the one-screen report contents.
func TestCollectorReport(t *testing.T) {
	net := testNetwork(t, 3, 5)
	col := NewCollector()
	if _, err := Run(net, Options{Reduce: true}, Config{Jobs: 2, Trace: col}); err != nil {
		t.Fatal(err)
	}
	rep := col.Report()
	for _, want := range []string{
		"pipeline: 5 module(s), 2 worker(s)",
		"reactive", "sift", "s-graph", "reduce", "codegen", "estimate",
		"reduce: 5 module(s)",
		"bdd: peak", "sift swaps",
		"bdd stages:", "reactive live ",
		"cache: 0 hit(s) (0 from disk), 0 miss(es)",
		"errors: none",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	for s := StageReactive; s <= StageEstimate; s++ {
		if s == StageSpecialize {
			continue // profile-gated; no profile in this run
		}
		if col.stageTotal[s] <= 0 {
			t.Errorf("stage %s recorded no time", s)
		}
	}
}

// TestContextCancelledBeforeRun: an already-dead context schedules no
// module at all and reports the context's error.
func TestContextCancelledBeforeRun(t *testing.T) {
	net := testNetwork(t, 17, 8)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	col := NewCollector()
	arts, err := RunContext(ctx, net, Options{}, Config{Jobs: 2, Trace: col})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if arts != nil {
		t.Errorf("cancelled run returned %d artifacts", len(arts))
	}
	if got := col.stageTotal[StageReactive]; got != 0 {
		t.Errorf("reactive stage ran for %v despite pre-cancelled context", got)
	}
}

// cancelAfterTrace cancels a context once the first module finishes
// its reactive stage, so the run dies while modules remain unscheduled.
type cancelAfterTrace struct {
	cancel context.CancelFunc
	inner  Trace
	once   sync.Once
}

func (c *cancelAfterTrace) Event(e Event) {
	c.inner.Event(e)
	if e.Kind == EvStage && e.Stage == StageReactive {
		c.once.Do(c.cancel)
	}
}

// TestContextCancelMidRun: cancelling during the run stops scheduling
// the remaining modules (the fail-fast drain path) and surfaces
// context.Canceled.
func TestContextCancelMidRun(t *testing.T) {
	net := testNetwork(t, 19, 12)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	col := NewCollector()
	tr := &cancelAfterTrace{cancel: cancel, inner: col}
	_, err := RunContext(ctx, net, Options{}, Config{Jobs: 1, Trace: tr})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	// With one worker and cancellation at the first reactive event, the
	// trailing modules must have been drained, not synthesized.
	if n := col.Modules(); n != 12 {
		t.Fatalf("run dispatched %d modules, want 12", n)
	}
	// Cancellation lands right after the first module's reactive stage,
	// so no module ever reaches codegen.
	if got := col.stageTotal[StageCodegen]; got != 0 {
		t.Errorf("codegen ran for %v despite mid-run cancellation", got)
	}
}

// TestSingleflightFollowersShareOneRun pins the dedup path: while a
// leader holds the in-flight slot for a fingerprint, concurrent
// missers join the flight and receive the leader's artifact — the
// pipeline runs exactly once.
func TestSingleflightFollowersShareOneRun(t *testing.T) {
	m := goodMachine("sf")
	cache, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	key := Fingerprint(m, Options{})

	// Occupy the flight slot as the leader.
	f, leader := cache.startFlight(key)
	if !leader {
		t.Fatal("first startFlight must lead")
	}

	const followers = 8
	var wg sync.WaitGroup
	arts := make([]*Artifact, followers)
	errs := make([]error, followers)
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arts[i], errs[i] = synthesizeCached(context.Background(), m, Options{}, cache, col)
		}(i)
	}
	// Wait until every follower has joined the flight.
	deadline := time.Now().Add(10 * time.Second)
	for cache.Stats().DedupJoins < followers {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d followers joined", cache.Stats().DedupJoins, followers)
		}
		time.Sleep(time.Millisecond)
	}

	// Leader synthesizes once and publishes.
	art, err := SynthesizeModule(m, Options{}, col)
	if err != nil {
		t.Fatal(err)
	}
	cache.Put(key, art)
	cache.endFlight(key, f, art, nil)
	wg.Wait()

	for i := 0; i < followers; i++ {
		if errs[i] != nil {
			t.Fatalf("follower %d: %v", i, errs[i])
		}
		if arts[i] != art {
			t.Errorf("follower %d received a different artifact", i)
		}
	}
	if _, _, misses := cacheCounters(col); misses != 0 {
		t.Errorf("followers recorded %d misses; the leader's run is the only synthesis", misses)
	}
	if col.Outcomes()[OutcomeDedup] != followers {
		t.Errorf("collector saw %d dedups, want %d", col.Outcomes()[OutcomeDedup], followers)
	}
}

// TestSingleflightLeaderCancelledRetries: a leader that dies of its own
// cancellation must not poison followers whose requests are alive —
// they retry and one becomes the new leader.
func TestSingleflightLeaderCancelledRetries(t *testing.T) {
	m := goodMachine("sfretry")
	cache, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	key := Fingerprint(m, Options{})

	f, leader := cache.startFlight(key)
	if !leader {
		t.Fatal("first startFlight must lead")
	}
	done := make(chan struct{})
	var art *Artifact
	var ferr error
	go func() {
		defer close(done)
		art, ferr = synthesizeCached(context.Background(), m, Options{}, cache, col)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for cache.Stats().DedupJoins < 1 {
		if time.Now().After(deadline) {
			t.Fatal("follower never joined")
		}
		time.Sleep(time.Millisecond)
	}
	// The leader's request dies; the follower must take over.
	cache.endFlight(key, f, nil, context.Canceled)
	<-done
	if ferr != nil {
		t.Fatalf("follower inherited the dead leader's cancellation: %v", ferr)
	}
	if art == nil {
		t.Fatal("follower returned no artifact")
	}
	// The join and the retry are one Serve call: it reports only its
	// final outcome, one miss, and no dedup.
	if o := col.Outcomes(); o[OutcomeMiss] != 1 || o[OutcomeDedup] != 0 || o[OutcomeMemHit]+o[OutcomeDiskHit] != 0 {
		t.Errorf("retrying follower counted %v (by outcome), want exactly one miss", o)
	}
}

// TestParseOutcome: every outcome's name parses back to it, and an
// unknown name is an error rather than a silent miss.
func TestParseOutcome(t *testing.T) {
	for o := Outcome(0); o < NumOutcomes; o++ {
		got, err := ParseOutcome(o.String())
		if err != nil || got != o {
			t.Errorf("ParseOutcome(%q) = %v, %v; want %v", o.String(), got, err, o)
		}
	}
	for _, bad := range []string{"", "hit", "MISS", "outcome4"} {
		if o, err := ParseOutcome(bad); err == nil {
			t.Errorf("ParseOutcome(%q) = %v, want an error", bad, o)
		}
	}
}

// TestConcurrentRunsSynthesizeOnce: N concurrent whole-network runs
// sharing one cache perform each module's synthesis exactly once in
// total — every other lookup is a hit or a dedup join.
func TestConcurrentRunsSynthesizeOnce(t *testing.T) {
	net := testNetwork(t, 29, 6)
	cache, err := NewCache("")
	if err != nil {
		t.Fatal(err)
	}
	col := NewCollector()
	const runs = 8
	var wg sync.WaitGroup
	errs := make([]error, runs)
	for i := 0; i < runs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = Run(net, Options{}, Config{Jobs: 2, Cache: cache, Trace: col})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
	}
	hits, _, misses := cacheCounters(col)
	if misses != 6 {
		t.Errorf("%d misses across %d concurrent runs, want exactly 6 (one per module)", misses, runs)
	}
	if total := hits + col.Outcomes()[OutcomeDedup] + misses; total != runs*6 {
		t.Errorf("hits %d + dedups %d + misses %d = %d, want %d lookups",
			hits, col.Outcomes()[OutcomeDedup], misses, total, runs*6)
	}
}

// TestArtifactReportZeroCodeSize guards the division in Report.
func TestArtifactReportZeroCodeSize(t *testing.T) {
	a, err := SynthesizeModule(goodMachine("tiny"), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	a.CodeSize = 0
	rep := a.Report()
	if !strings.Contains(rep, "n/a error") {
		t.Errorf("zero code size should report n/a, got:\n%s", rep)
	}
	if strings.Contains(rep, "Inf") || strings.Contains(rep, "NaN") {
		t.Errorf("report leaks a division by zero:\n%s", rep)
	}
}

// TestDefaultTargetCalibratesOnce pins that a nil Target does not
// recalibrate: a defaulted call must cost no more than one with an
// explicit, already-calibrated target.
func TestDefaultTargetCalibratesOnce(t *testing.T) {
	m := testNetwork(t, 3, 1).Machines[0]
	var explicit Options
	explicit.fill()
	synth := func(opt Options) func() {
		return func() {
			if _, err := SynthesizeModule(m, opt, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	synth(Options{})()
	synth(explicit)()
	withTarget := testing.AllocsPerRun(20, synth(explicit))
	defaulted := testing.AllocsPerRun(20, synth(Options{}))
	if defaulted > withTarget*1.1 {
		t.Errorf("SynthesizeModule with a nil Target: %.0f allocs/op, %.0f with an explicit one (re-calibrating per call?)",
			defaulted, withTarget)
	}
}
