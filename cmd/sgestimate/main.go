// Command sgestimate prints the Table I style cost/performance report:
// the s-graph estimator's code size and min/max cycles for every
// module of a benchmark design, next to exact measurements of the
// compiled object code.
//
// Usage:
//
//	sgestimate [-target hc11|r3k] [-design dashboard|shock]
package main

import (
	"flag"
	"fmt"
	"os"

	"polis/internal/designs"
	"polis/internal/experiments"
	"polis/internal/vm"
)

func main() {
	target := flag.String("target", "hc11", "cost profile: hc11 or r3k")
	design := flag.String("design", "dashboard", "benchmark design: dashboard or shock")
	flag.Parse()

	var prof *vm.Profile
	switch *target {
	case "hc11":
		prof = vm.HC11()
	case "r3k":
		prof = vm.R3K()
	default:
		fatal(fmt.Errorf("unknown target %q", *target))
	}

	switch *design {
	case "dashboard":
		rows, err := experiments.Table1(prof)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.FormatTable1(prof, rows))
	case "shock":
		rows, err := experiments.EstimationRows(prof, designs.NewShockAbsorber().Modules())
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.FormatEstimates(prof, "shock absorber", rows))
	default:
		fatal(fmt.Errorf("unknown design %q", *design))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sgestimate:", err)
	os.Exit(1)
}
