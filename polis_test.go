package polis

import (
	"strings"
	"testing"

	"polis/internal/designs"
	"polis/internal/esterel"
	"polis/internal/pipeline"
	"polis/internal/rtos"
	"polis/internal/sgraph"
	"polis/internal/vm"
)

const fig1 = `
module simple:
input c : integer;
output y;
var a : integer in
loop
  await c;
  if a = ?c then a := 0; emit y;
  else a := a + 1;
  end if
end loop
end var
end module
`

func TestSynthesizeSourceFig1(t *testing.T) {
	art, err := SynthesizeSource(fig1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(art.C, "simple_react") {
		t.Error("C output missing routine")
	}
	if art.CodeSize <= 0 || art.Measured.Max <= 0 {
		t.Errorf("degenerate artifacts: %+v", art)
	}
	if art.Estimate.MaxCycles < art.Estimate.MinCycles {
		t.Error("estimate bounds inverted")
	}
	rep := art.Report()
	if !strings.Contains(rep, "CFSM simple") {
		t.Errorf("report malformed:\n%s", rep)
	}
	if !strings.Contains(art.Listing, "simple_react") {
		t.Error("listing missing entry label")
	}
}

func TestSynthesizeDashboardModules(t *testing.T) {
	d := designs.NewDashboard()
	for _, m := range d.Modules() {
		for _, prof := range []*vm.Profile{vm.HC11(), vm.R3K()} {
			art, err := Synthesize(m, Options{Target: prof})
			if err != nil {
				t.Fatalf("%s on %s: %v", m.Name, prof.Name, err)
			}
			if art.CodeSize <= 0 {
				t.Errorf("%s: no code", m.Name)
			}
		}
	}
}

func TestSynthesizeOrderingOption(t *testing.T) {
	d := designs.NewDashboard()
	optDefault, err := Synthesize(d.Fuel, Options{})
	if err != nil {
		t.Fatal(err)
	}
	optNaive, err := Synthesize(d.Fuel, Options{Ordering: sgraph.OrderNaive})
	if err != nil {
		t.Fatal(err)
	}
	if optDefault.CodeSize > optNaive.CodeSize {
		t.Errorf("default (sifted) %d B should not exceed naive %d B",
			optDefault.CodeSize, optNaive.CodeSize)
	}
}

func TestGenerateRTOSAPI(t *testing.T) {
	s := designs.NewShockAbsorber()
	src, size, err := GenerateRTOS(s.Net, rtos.DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(src, "polis_scheduler") || !strings.Contains(src, "accel_filter_react") {
		t.Error("RTOS source incomplete")
	}
	if size.CodeBytes <= 0 {
		t.Error("RTOS size missing")
	}
}

func TestSynthesizeSourceErrors(t *testing.T) {
	if _, err := SynthesizeSource("module broken", Options{}); err == nil {
		t.Error("parse error must propagate")
	}
	bad := `
module bad:
input x;
var a : integer in
await x;
loop
  a := a + 1;
end loop
end var
end module
`
	if _, err := SynthesizeSource(bad, Options{}); err == nil {
		t.Error("instantaneous loop must propagate")
	}
}

// TestDefaultTargetShared pins that Synthesize resolves a nil target
// to the one process-lifetime profile, pipeline.DefaultTarget, which
// the pipeline calibrates once: the artifacts match an explicit
// DefaultTarget, and a call costs no more allocations than one with it
// (a fresh vm.HC11() per call would re-calibrate; see
// pipeline.TestDefaultTargetCalibratesOnce).
func TestDefaultTargetShared(t *testing.T) {
	mod, err := esterel.Parse(fig1)
	if err != nil {
		t.Fatal(err)
	}
	m, _, err := esterel.Compile(mod)
	if err != nil {
		t.Fatal(err)
	}
	explicit := Options{Target: pipeline.DefaultTarget()}
	a, err := Synthesize(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Synthesize(m, explicit)
	if err != nil {
		t.Fatal(err)
	}
	if a.C != b.C || a.Listing != b.Listing || a.CodeSize != b.CodeSize ||
		a.Estimate != b.Estimate || a.Measured != b.Measured {
		t.Error("a nil target synthesizes differently from pipeline.DefaultTarget")
	}
	synth := func(opt Options) func() {
		return func() {
			if _, err := Synthesize(m, opt); err != nil {
				t.Fatal(err)
			}
		}
	}
	withTarget := testing.AllocsPerRun(20, synth(explicit))
	defaulted := testing.AllocsPerRun(20, synth(Options{}))
	if defaulted > withTarget*1.1 {
		t.Errorf("Synthesize with a nil Target: %.0f allocs/op, %.0f with pipeline.DefaultTarget (re-calibrating per call?)",
			defaulted, withTarget)
	}
}
