package pipeline

import (
	"strconv"
	"strings"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/expr"
	"polis/internal/profile"
)

// specMachine builds a two-test machine (presence + predicate) whose
// layout specialization can visibly reorder.
func specMachine(name string) *cfsm.CFSM {
	c := cfsm.New(name)
	in := c.AddInput("c", false)
	y := c.AddOutput("y", true)
	a := c.AddState("a", 0, 0)
	pc := c.Present(in)
	eq := c.Pred(expr.Eq(expr.V("a"), expr.V("?c")))
	c.AddTransition([]cfsm.Cond{cfsm.On(pc, 1), cfsm.On(eq, 1)},
		c.Assign(a, expr.C(0)), c.Emit(y))
	c.AddTransition([]cfsm.Cond{cfsm.On(pc, 1), cfsm.On(eq, 0)},
		c.Assign(a, expr.Add(expr.V("a"), expr.C(1))))
	return c
}

// specProfileFor builds a profile heavily biased toward the
// (present=1, pred=0) outcome vector of m.
func specProfileFor(m *cfsm.CFSM) *profile.Profile {
	names := make([]string, len(m.Tests))
	for i, t := range m.Tests {
		names[i] = t.Name()
	}
	vec := func(pres, pred int) string {
		parts := make([]string, len(names))
		for i, n := range names {
			if strings.HasPrefix(n, "present_") {
				parts[i] = strconv.Itoa(pres)
			} else {
				parts[i] = strconv.Itoa(pred)
			}
		}
		return strings.Join(parts, ",")
	}
	counts := map[string]int64{}
	for _, pres := range []int{0, 1} {
		for _, pred := range []int{0, 1} {
			counts[vec(pres, pred)] = 1
		}
	}
	counts[vec(1, 0)] = 1000
	return &profile.Profile{Modules: map[string]*profile.ModuleProfile{
		m.Name: {Module: m.Name, TestNames: names, Outcomes: counts, Reactions: 1003},
	}}
}

// TestPipelineSpecialize runs the full per-module flow with a profile
// and checks the specialize stage fires, reshapes the artifact, and
// reports profile-weighted expected cycles.
func TestPipelineSpecialize(t *testing.T) {
	m := specMachine("hotmod")
	p := specProfileFor(m)
	col := NewCollector()
	art, err := SynthesizeModule(m, Options{Profile: p}, col)
	if err != nil {
		t.Fatal(err)
	}
	if !art.Specialized || art.Specialize.Reordered == 0 {
		t.Fatalf("specialization did not reorder: specialized=%v stats=%v",
			art.Specialized, art.Specialize)
	}
	if art.Estimate.ExpectedCycles <= 0 {
		t.Fatalf("expected cycles not computed: %+v", art.Estimate)
	}
	if art.Estimate.ExpectedCycles > art.Estimate.MaxCycles {
		t.Errorf("expected cycles %d exceed the worst case %d",
			art.Estimate.ExpectedCycles, art.Estimate.MaxCycles)
	}
	if col.stageTotal[StageSpecialize] <= 0 {
		t.Error("specialize stage recorded no time")
	}
	if rep := col.Report(); !strings.Contains(rep, "specialize:") {
		t.Errorf("collector report lacks the specialize line:\n%s", rep)
	}

	// The same machine without a profile must generate different code
	// (the hot outcome moved onto the fall-through arc).
	plain, err := SynthesizeModule(specMachine("hotmod"), Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plain.C == art.C {
		t.Error("specialized C is identical to the unspecialized output")
	}
	if plain.Specialized || plain.Estimate.ExpectedCycles != 0 {
		t.Errorf("profile-free run must not specialize: %+v", plain.Estimate)
	}
}

// TestFingerprintTracksProfile: profile evidence for a module must
// change its cache key; evidence about other modules must not.
func TestFingerprintTracksProfile(t *testing.T) {
	m := specMachine("hotmod")
	p := specProfileFor(m)
	base := Fingerprint(m, Options{})
	if got := Fingerprint(m, Options{Profile: p}); got == base {
		t.Error("profile evidence did not change the fingerprint")
	}
	foreign := &profile.Profile{Modules: map[string]*profile.ModuleProfile{
		"other": p.Modules["hotmod"],
	}}
	if got := Fingerprint(m, Options{Profile: foreign}); got != base {
		t.Error("evidence about an unrelated module changed the fingerprint")
	}
	// Different evidence, different key.
	p2 := specProfileFor(m)
	for k := range p2.Modules["hotmod"].Outcomes {
		p2.Modules["hotmod"].Outcomes[k] += 7
	}
	if Fingerprint(m, Options{Profile: p}) == Fingerprint(m, Options{Profile: p2}) {
		t.Error("changed outcome counts did not change the fingerprint")
	}
}
