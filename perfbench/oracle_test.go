package main

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/designs"
	"polis/internal/pipeline"
	"polis/internal/randcfsm"
	"polis/internal/rtos"
	"polis/internal/sim"
	"polis/internal/vm"
)

// smallNet is a test-sized synthesis input: random machines plus the
// shock-absorber design.
func smallNet(t *testing.T) *synthNet {
	t.Helper()
	r := rand.New(rand.NewSource(1))
	net := cfsm.NewNetwork("t")
	sn := &synthNet{}
	for i := 0; i < 12; i++ {
		cfg := randcfsm.DefaultConfig()
		if i%4 == 3 {
			cfg = randcfsm.Scaled(2)
		}
		m, err := randcfsm.NewInNetwork(r, net, fmt.Sprintf("m%02d", i), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sn.machines = append(sn.machines, m.C)
		sn.ranges = append(sn.ranges, cfg.ValueRange)
	}
	for _, m := range designs.NewShockAbsorber().Modules() {
		sn.machines = append(sn.machines, m)
		sn.ranges = append(sn.ranges, 64)
	}
	return sn
}

func synthesize(t *testing.T, sn *synthNet) []*pipeline.Artifact {
	t.Helper()
	arts, err := pipeline.RunModules(sn.machines, synthOpts, pipeline.Config{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	return arts
}

func TestStagedSynthesisMatchesPipeline(t *testing.T) {
	sn := smallNet(t)
	want := synthesize(t, sn)
	opt := synthOpts
	opt.Target = vm.HC11()
	tr := newTracer()
	for i, m := range sn.machines {
		got, _, err := stagedSynthesize(tr, -1, i, m, opt)
		if err != nil {
			t.Fatal(err)
		}
		if got.C != want[i].C || got.Listing != want[i].Listing {
			t.Fatalf("%s: staged C or listing differs from pipeline.SynthesizeModule", m.Name)
		}
		if d := artifactDiff(got, want[i]); d != "" {
			t.Fatalf("%s: staged synthesis differs in %s", m.Name, d)
		}
	}
	if self := tr.selfTimes(); self["sgraph.ApplyOrdering"] <= 0 || self["codegen.Assemble"] <= 0 {
		t.Fatalf("stage spans missing: %v", self)
	}
}

func TestVMOracle(t *testing.T) {
	sn := smallNet(t)
	arts := synthesize(t, sn)
	if bad := vmOracle(sn, arts, 1); len(bad) != 0 {
		t.Fatalf("clean object code fails the oracle: %v", bad)
	}
	// Planted fault: the object code drops every emission and state
	// store, so each module that reacts on some snapshot diverges.
	for _, a := range arts {
		for i, in := range a.Program.Instrs {
			if in.Op == vm.ST || (in.Op == vm.SVC && (in.Num == vm.SvcEmit || in.Num == vm.SvcEmitV)) {
				a.Program.Instrs[i] = vm.Instr{Op: vm.NOP}
			}
		}
	}
	if bad := vmOracle(sn, arts, 1); len(bad) < len(arts)/2 {
		t.Fatalf("broken object code: %d of %d modules caught", len(bad), len(arts))
	}
}

func TestArtifactOracleCatchesFlippedListingByte(t *testing.T) {
	sn := smallNet(t)
	ref := synthesize(t, sn)
	got := synthesize(t, sn)
	if bad := compareArtifacts(got, ref); len(bad) != 0 {
		t.Fatalf("identical runs differ: %v", bad)
	}
	a := *got[3]
	b := []byte(a.Listing)
	b[len(b)/2] ^= 1
	a.Listing = string(b)
	got[3] = &a
	bad := compareArtifacts(got, ref)
	if len(bad) != 1 || !strings.Contains(bad[0], "Listing") {
		t.Fatalf("flipped listing byte: oracle says %v", bad)
	}
}

func TestServeOracleCatchesStaleResults(t *testing.T) {
	fps := map[string]string{"a": "fa2", "b": "fb1"}
	want := map[string]serveExpect{"fa1": {10, 20}, "fa2": {12, 25}, "fb1": {30, 40}}
	fresh := func() []serveResult {
		return []serveResult{
			{module: "a", fingerprint: "fa2", codeSize: 12, maxCycles: 25},
			{module: "b", fingerprint: "fb1", codeSize: 30, maxCycles: 40},
		}
	}
	if bad := serveOracle(fresh(), fps, want); len(bad) != 0 {
		t.Fatalf("fresh results fail: %v", bad)
	}
	stale := fresh()
	stale[0].codeSize = 10 // the pre-edit version's size under the new key
	if bad := serveOracle(stale, fps, want); len(bad) != 1 {
		t.Fatalf("stale code_size: oracle says %v", bad)
	}
	stale = fresh()
	stale[0] = serveResult{module: "a", fingerprint: "fa1", codeSize: 10, maxCycles: 20} // a stale hit
	if bad := serveOracle(stale, fps, want); len(bad) != 1 {
		t.Fatalf("stale hit: oracle says %v", bad)
	}
	if bad := serveOracle(fresh()[:1], fps, want); len(bad) != 1 {
		t.Fatalf("missing module: oracle says %v", bad)
	}
}

func TestSimOracleCatchesPerturbedEvent(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	net, _, err := randcfsm.NewTopologyNetwork(r, 6, randcfsm.DefaultConfig(), randcfsm.TopoChain)
	if err != nil {
		t.Fatal(err)
	}
	var stim []sim.Stimulus
	for i, s := range net.PrimaryInputs() {
		stim = append(stim, sim.Stimulus{Time: int64(100 + 300*i), Signal: s, Value: 1})
	}
	res, err := sim.Run(net, stim, 20_000, simOptions())
	if err != nil {
		t.Fatal(err)
	}
	n := reactionsOf(res.System)
	h := traceHash(res.Trace)
	if len(res.Trace) == 0 || n == 0 {
		t.Fatal("scenario produced no trace")
	}
	if bad := simOracle(h, n, h, n); len(bad) != 0 {
		t.Fatalf("identical run fails: %v", bad)
	}
	perturbed := append([]rtos.TraceEvent(nil), res.Trace...)
	perturbed[len(perturbed)/2].Value++
	if bad := simOracle(traceHash(perturbed), n, h, n); len(bad) != 1 {
		t.Fatalf("perturbed trace event: oracle says %v", bad)
	}
	if bad := simOracle(h, n+1, h, n); len(bad) != 1 {
		t.Fatalf("extra reaction: oracle says %v", bad)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if got := median(xs); got != 3 {
		t.Fatalf("median = %v", got)
	}
	if got := quantile(xs, 0.99); got != 5 {
		t.Fatalf("p99 = %v", got)
	}
	if got := quantile(xs, 0.2); got != 1 {
		t.Fatalf("p20 = %v", got)
	}
}

func TestIQMRate(t *testing.T) {
	// Per-item costs 1, 2, 3 and 50 ms: the middle two samples count.
	items := []float64{2, 1, 1, 1}
	cpuMs := []float64{4, 1, 3, 50}
	if got := iqmRate(items, cpuMs); got != 3.0/7*1e3 {
		t.Fatalf("iqmRate = %v, want %v", got, 3.0/7*1e3)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	root := tr.open("root", -1, 0)
	tr.do("child", root, 0, func() {})
	tr.close(root)
	self := tr.selfTimes()
	s := tr.spans
	if want := (s[0].end - s[0].start) - (s[1].end - s[1].start); self["root"] != want {
		t.Fatalf("root self time %v, want %v", self["root"], want)
	}
}

func TestSelfTimesOfParallelChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{name: "op", parent: -1, start: 0, end: 10},
		{name: "module", parent: 0, start: 1, end: 5},
		{name: "module", parent: 0, start: 3, end: 8}, // overlaps the first on another worker
		{name: "module", parent: 0, start: 9, end: 10},
	}
	self := tr.selfTimes()
	if self["op"] != 2 || self["module"] != 10 {
		t.Fatalf("self times %v, want op 2 and module 10", self)
	}
}
