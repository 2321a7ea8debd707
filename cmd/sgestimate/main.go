// Command sgestimate prints the Table I style cost/performance report:
// the s-graph estimator's code size and min/max cycles for every
// module of a benchmark design, next to exact measurements of the
// compiled object code.
//
// Usage:
//
//	sgestimate [-target hc11|r3k] [-design dashboard|shock]
//
// An unknown -target name exits 1 with an error listing the accepted
// names.
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

	prof, err := vm.Target(*target)
	if err != nil {
		fatal(err)
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
