package polis

import (
	"strings"
	"testing"

	"polis/internal/designs"
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
	rep := art.Report(nil)
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

// TestDefaultTargetShared pins that a nil target resolves to the one
// process-lifetime profile the pipeline calibrates once, not to a
// fresh vm.HC11() (see pipeline.TestDefaultTargetCalibratesOnce).
func TestDefaultTargetShared(t *testing.T) {
	a, b := Options{}.Pipeline(), Options{}.Pipeline()
	if a.Target == nil || a.Target != b.Target || a.Target != pipeline.DefaultTarget() {
		t.Errorf("nil targets resolved to %p and %p, want the shared %p",
			a.Target, b.Target, pipeline.DefaultTarget())
	}
}
