package netfuzz

import (
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"polis/internal/rtos"
)

func TestConfigRoundTrip(t *testing.T) {
	cases := []Config{
		DefaultConfig(),
		{Machines: 5, Topology: 2, Stimuli: 9, Gap: 12345, Horizon: 900_000,
			Policy: rtos.StaticPriority, Preempt: true, Polling: true, HW: true,
			Chains: true, Faults: FaultDrop | FaultBurst, Mutant: rtos.MutantStaleOverwrite},
		{Machines: 1, Topology: 0, Stimuli: 1, Gap: 1, Faults: faultAll,
			Mutant: rtos.MutantConsumeUnfired},
		{Machines: 4, Topology: 1, Stimuli: 6, Gap: 500, Storm: true,
			Faults: FaultBurst},
		{Machines: 3, Topology: 1, Stimuli: 8, Gap: 2000, Specialize: true,
			Storm: true, Faults: FaultJitter},
	}
	for _, c := range cases {
		want, err := c.normalize()
		if err != nil {
			t.Fatalf("normalize %s: %v", c, err)
		}
		got, err := Parse(want.String())
		if err != nil {
			t.Fatalf("parse %q: %v", want.String(), err)
		}
		if got != want {
			t.Errorf("round trip changed config: %s -> %s", want, got)
		}
	}
	for _, bad := range []string{"", "n=0", "stim=5", "n=2,stim=3,gap=0", "n=2,stim=3,gap=9,mutant=bogus", "wat"} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted an invalid config", bad)
		}
	}
}

// TestSeededTraceEquivalence is the seeded regression of the PR: over
// fixed strict-regime configs, Behavioral and VMExact must produce
// identical per-signal traces, loss accounting and final states, and
// every run must satisfy the timing-independent invariants. Before the
// Fired-semantics fix in cfsm.React (action-less matched transitions
// counted as fired in the reference but cannot in the object code),
// roughly one in ten of these seeds diverged.
func TestSeededTraceEquivalence(t *testing.T) {
	strict := 0
	for seed := int64(1); seed <= 20; seed++ {
		rep := RunOne(seed, DefaultConfig())
		if rep.Failed() {
			t.Fatalf("seed %d: %v\nreplay: %s", seed, rep.Violations, rep.Repro())
		}
		if rep.Strict {
			strict++
		}
	}
	// Every default-config seed currently serializes; if generator or
	// scheduler changes legitimately break a few, this still must not
	// drop to a vacuous comparison.
	if strict < 15 {
		t.Errorf("only %d/20 default-config seeds qualified for strict comparison", strict)
	}

	variants := []string{
		"n=4,topo=chain,stim=10,gap=80000,policy=prio,hw=1",
		"n=3,topo=chain,stim=10,gap=80000,policy=rr,chain=1",
		"n=2,topo=independent,stim=8,gap=60000,policy=prio,preempt=1",
		"n=3,topo=chain,stim=12,gap=60000,faults=drop|truncate",
	}
	for _, v := range variants {
		cfg, err := Parse(v)
		if err != nil {
			t.Fatal(err)
		}
		vs := 0
		for seed := int64(1); seed <= 10; seed++ {
			rep := RunOne(seed, cfg)
			if rep.Failed() {
				t.Fatalf("variant %q seed %d: %v\nreplay: %s", v, seed, rep.Violations, rep.Repro())
			}
			if rep.Strict {
				vs++
			}
		}
		if vs == 0 {
			t.Errorf("variant %q: no seed qualified for strict comparison", v)
		}
	}
}

// TestRunOneDeterministic: a report must replay bit-identically from
// (seed, config) — the whole basis of seed reproduction.
func TestRunOneDeterministic(t *testing.T) {
	cfg := RandomConfig(rand.New(rand.NewSource(configSeed(7))), rtos.MutantNone)
	a, b := RunOne(7, cfg), RunOne(7, cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed+config produced different reports:\n%+v\nvs\n%+v", a, b)
	}
}

// TestFuzzCampaignRandom is the bounded fuzz smoke: randomized
// scenario shapes over a seed range, every invariant checked, zero
// tolerance for violations. NETFUZZ_RUNS bumps the budget (ci.sh).
func TestFuzzCampaignRandom(t *testing.T) {
	runs := 150
	if s := os.Getenv("NETFUZZ_RUNS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad NETFUZZ_RUNS %q: %v", s, err)
		}
		runs = n
	}
	var sb strings.Builder
	res := Campaign(1, runs, Config{}, true, &sb)
	if len(res.Failures) != 0 {
		t.Fatalf("campaign found %d violations:\n%s", len(res.Failures), sb.String())
	}
	if res.Strict == 0 {
		t.Errorf("no run of %d qualified for strict comparison; the invariant is vacuous", res.Runs)
	}
}

// TestFuzzCampaignReduce pins reduce-on coverage: every synthesized
// task graph is reduced before code generation and the per-reaction
// VM-against-reference check then gates the reduced object code. The
// randomized campaign also draws reduce scenarios, but this fixed
// config cannot rotate away. NETFUZZ_REDUCE_RUNS bumps the budget
// (ci.sh).
func TestFuzzCampaignReduce(t *testing.T) {
	runs := 40
	if s := os.Getenv("NETFUZZ_REDUCE_RUNS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad NETFUZZ_REDUCE_RUNS %q: %v", s, err)
		}
		runs = n
	}
	cfg := DefaultConfig()
	cfg.Reduce = true
	var sb strings.Builder
	res := Campaign(1, runs, cfg, false, &sb)
	if len(res.Failures) != 0 {
		t.Fatalf("reduce campaign found %d violations:\n%s", len(res.Failures), sb.String())
	}
}

// TestFuzzCampaignStorm pins storm coverage: same-cycle duplicate
// stimulus storms on a dense timeline push several environment events
// into a single time-advance, the worst case for the batched delivery
// queue's ordering and one-place-buffer overwrite accounting. The
// randomized campaign also draws storm scenarios, but this fixed config
// cannot rotate away. NETFUZZ_STORM_RUNS bumps the budget (ci.sh).
func TestFuzzCampaignStorm(t *testing.T) {
	runs := 40
	if s := os.Getenv("NETFUZZ_STORM_RUNS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad NETFUZZ_STORM_RUNS %q: %v", s, err)
		}
		runs = n
	}
	cfg := DefaultConfig()
	cfg.Storm = true
	cfg.Gap = 400 // dense spacing: storms land on a busy system
	var sb strings.Builder
	res := Campaign(1, runs, cfg, false, &sb)
	if len(res.Failures) != 0 {
		t.Fatalf("storm campaign found %d violations:\n%s", len(res.Failures), sb.String())
	}
}

// TestFuzzCampaignSpecialize pins specialization coverage: every run
// captures a behavioral profile first, then both checked modes execute
// hot-path-reordered task graphs, so the differential invariants (VM
// vs reference interpreter, cycle bounds, trace equality) gate every
// specialized layout. The randomized campaign also draws specialize
// scenarios, but this fixed config cannot rotate away.
// NETFUZZ_SPEC_RUNS bumps the budget (ci.sh).
func TestFuzzCampaignSpecialize(t *testing.T) {
	runs := 40
	if s := os.Getenv("NETFUZZ_SPEC_RUNS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad NETFUZZ_SPEC_RUNS %q: %v", s, err)
		}
		runs = n
	}
	cfg := DefaultConfig()
	cfg.Specialize = true
	var sb strings.Builder
	res := Campaign(1, runs, cfg, false, &sb)
	if len(res.Failures) != 0 {
		t.Fatalf("specialize campaign found %d violations:\n%s", len(res.Failures), sb.String())
	}
}

// TestConfigRoundTripReduce: the replay line must carry the reduce
// knob through String/Parse unchanged.
func TestConfigRoundTripReduce(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Reduce = true
	got, err := Parse(cfg.String())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Reduce {
		t.Fatalf("reduce flag lost in round trip: %s -> %+v", cfg.String(), got)
	}
}

// TestMutantSelfCheck proves the harness detects known-bad semantics:
// for every rtos mutant, some seed in a small budget must trip the
// expected invariant, the failure must replay deterministically from
// its printed seed+config, and shrinking must preserve it.
func TestMutantSelfCheck(t *testing.T) {
	expected := map[rtos.Mutant]map[string]bool{
		rtos.MutantLostUndercount: {"loss-accounting": true},
		rtos.MutantStaleOverwrite: {"buffer-model": true},
		rtos.MutantConsumeUnfired: {"buffer-model": true, "loss-accounting": true},
	}
	for mutant, wantInv := range expected {
		name := mutantName(mutant)
		var found *Report
		for seed := int64(1); seed <= 40 && found == nil; seed++ {
			cfg := RandomConfig(rand.New(rand.NewSource(configSeed(seed))), mutant)
			if rep := RunOne(seed, cfg); rep.Failed() {
				found = rep
			}
		}
		if found == nil {
			t.Errorf("mutant %s: not detected within 40 seeds", name)
			continue
		}
		hit := false
		for _, v := range found.Violations {
			if wantInv[v.Invariant] {
				hit = true
			}
		}
		if !hit {
			t.Errorf("mutant %s: detected but via unexpected invariants %v", name, found.Violations)
		}

		// Deterministic replay from the printed seed+config pair.
		cfgStr := found.Config.String()
		parsed, err := Parse(cfgStr)
		if err != nil {
			t.Fatalf("mutant %s: repro config %q does not parse: %v", name, cfgStr, err)
		}
		replay := RunOne(found.Seed, parsed)
		if !reflect.DeepEqual(replay.Violations, found.Violations) {
			t.Errorf("mutant %s: replay of seed %d diverged:\n%v\nvs\n%v",
				name, found.Seed, replay.Violations, found.Violations)
		}

		// Shrinking keeps a failing, no-larger scenario.
		shrunk, _ := Shrink(found.Seed, found.Config, 64)
		if !shrunk.Failed() {
			t.Errorf("mutant %s: shrink lost the failure", name)
		}
		if shrunk.Config.Machines > found.Config.Machines || shrunk.Config.Stimuli > found.Config.Stimuli {
			t.Errorf("mutant %s: shrink grew the scenario: %s -> %s", name, found.Config, shrunk.Config)
		}
	}
}

// TestCleanRunsAreMutantFree pins that the detector is not trigger-
// happy: the exact seeds used by the self-check, run without a mutant,
// must stay quiet.
func TestCleanRunsAreMutantFree(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		cfg := RandomConfig(rand.New(rand.NewSource(configSeed(seed))), rtos.MutantNone)
		if rep := RunOne(seed, cfg); rep.Failed() {
			t.Fatalf("seed %d failed without a mutant: %v\nreplay: %s", seed, rep.Violations, rep.Repro())
		}
	}
}

// TestReplayByteStable replays a stale-buffer campaign in which one
// task has two mismatching buffers at once, several times over, and
// requires the same output each time: a replayed failure must print
// its violation lines in one order.
func TestReplayByteStable(t *testing.T) {
	cfg, err := Parse("n=3,topo=dag,stim=12,gap=60000,hz=0,policy=prio,preempt=1,poll=0,hw=0,chain=0,reduce=1,storm=0,spec=0,faults=,mutant=stale")
	if err != nil {
		t.Fatal(err)
	}
	// The seeds and run count of "polisc fuzz -seed 3 -config ...".
	replay := func() string {
		var b strings.Builder
		Campaign(3, 100, cfg, false, &b)
		return b.String()
	}
	first := replay()
	for _, line := range []string{"task m02 t=480024: snapshot value of m02_i0", "task m02 t=480024: snapshot value of m02_i2"} {
		if !strings.Contains(first, line) {
			t.Fatalf("the campaign no longer reports two stale buffers of one task (no %q); pick a config that does", line)
		}
	}
	for i := 0; i < 2; i++ {
		if again := replay(); again != first {
			t.Fatalf("replay %d differs from the first:\n%s\nvs\n%s", i+2, again, first)
		}
	}
}
