package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"polis/internal/designs"
	"polis/internal/vm"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// goldenReport renders Tables I-III, the shock-absorber report, the
// collapse, RTOS, copy, false-path and reduce ablations and
// sgestimate's shock rows, in a fixed order. Table III's wall-clock
// Synthesis column is zeroed; everything else is deterministic.
func goldenReport(t *testing.T) string {
	t.Helper()
	hc, r3 := vm.HC11(), vm.R3K()
	var b strings.Builder
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	add := func(s string) { b.WriteString(s + "\n") }
	for _, prof := range []*vm.Profile{hc, r3} {
		rows, err := Table1(prof)
		must(err)
		add(FormatTable1(prof, rows))
	}
	t2, err := Table2(hc)
	must(err)
	add(FormatTable2(hc, t2))
	t3, err := Table3(r3)
	must(err)
	for i := range t3 {
		t3[i].Synthesis = 0
	}
	add(FormatTable3(r3, t3))
	sa, err := ShockAbsorberExperiment(hc)
	must(err)
	add(FormatShock(hc, sa))
	cl, err := AblationCollapse(hc)
	must(err)
	add(FormatCollapse(hc, cl))
	ro, err := AblationRTOS(hc)
	must(err)
	add(FormatRTOS(hc, ro))
	cp, err := AblationCopies(hc)
	must(err)
	add(FormatCopies(hc, cp))
	fp, err := AblationFalsePaths(hc)
	must(err)
	add(FormatFalsePaths(hc, fp))
	rd, err := AblationReduce(hc)
	must(err)
	add(FormatReduce(hc, rd))
	for _, prof := range []*vm.Profile{hc, r3} {
		rows, err := EstimationRows(prof, designs.NewShockAbsorber().Modules())
		must(err)
		add(FormatEstimates(prof, "shock absorber", rows))
	}
	return b.String()
}

// TestExperimentsGolden pins the formatted output of every experiment
// byte for byte. Regenerate with:
// go test ./internal/experiments -run Golden -update
func TestExperimentsGolden(t *testing.T) {
	got := goldenReport(t)
	path := filepath.Join("testdata", "experiments_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	want := string(data)
	if got == want {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("line %d differs (run with -update to regenerate):\n got %q\nwant %q", i+1, g, w)
		}
	}
}
