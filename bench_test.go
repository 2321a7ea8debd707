package polis

// The benchmark harness regenerates every table and figure of the
// paper's experimental section (see DESIGN.md Section 3 for the
// experiment index and EXPERIMENTS.md for paper-vs-measured records):
//
//	BenchmarkFig1SimpleSGraph  — Fig. 1, the `simple` module's s-graph
//	BenchmarkTable1Estimation  — Table I, estimation vs measurement
//	BenchmarkTable2Orderings   — Table II, ordering strategies
//	BenchmarkTable3VsEsterel   — Table III, Esterel strategy comparison
//	BenchmarkShockAbsorber     — Section V-B redesign
//	BenchmarkAblationCollapse  — TEST-node collapsing (negative result)
//	BenchmarkAblationRTOS      — generated vs commercial RTOS; polling vs IRQ
//	BenchmarkAblationCopies    — write-before-read copy optimisation
//	BenchmarkAblationFalsePaths— event-incompatibility WCET pruning
//	BenchmarkAblationReduce    — fixed-point s-graph reduction engine
//	BenchmarkAblationChaining  — Section IV-A task chaining
//	BenchmarkPartitionSweep    — hardware/software partitioning trade-off
//
// Run with `go test -bench=. -benchmem`; each bench reports its key
// figures as custom metrics and prints the full table once.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"polis/internal/cfsm"
	"polis/internal/experiments"
	"polis/internal/pipeline"
	"polis/internal/randcfsm"
	"polis/internal/sgraph"
	"polis/internal/vm"
)

var printOnce sync.Once

// BenchmarkFig1SimpleSGraph reproduces Fig. 1: synthesis of the
// paper's `simple` Esterel module into its s-graph and code.
func BenchmarkFig1SimpleSGraph(b *testing.B) {
	var art *Artifacts
	for i := 0; i < b.N; i++ {
		var err error
		art, err = SynthesizeSource(fig1, Options{})
		if err != nil {
			b.Fatal(err)
		}
	}
	st := art.SGraph.ComputeStats()
	b.ReportMetric(float64(st.Tests), "TESTs")
	b.ReportMetric(float64(st.Assigns), "ASSIGNs")
	b.ReportMetric(float64(art.CodeSize), "code-bytes")
}

// BenchmarkTable1Estimation regenerates Table I on the HC11-class
// target and reports the worst estimation errors.
func BenchmarkTable1Estimation(b *testing.B) {
	prof := vm.HC11()
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table1(prof)
		if err != nil {
			b.Fatal(err)
		}
	}
	var worstSize, worstCyc float64
	for _, r := range rows {
		if e := abs(r.SizeErrPct); e > worstSize {
			worstSize = e
		}
		if e := abs(r.CycErrPct); e > worstCyc {
			worstCyc = e
		}
	}
	b.ReportMetric(worstSize, "worst-size-err-%")
	b.ReportMetric(worstCyc, "worst-cycle-err-%")
	printOnce.Do(func() { b.Log("\n" + experiments.FormatTable1(prof, rows)) })
}

// BenchmarkTable2Orderings regenerates Table II and reports total
// bytes per strategy.
func BenchmarkTable2Orderings(b *testing.B) {
	prof := vm.HC11()
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table2(prof)
		if err != nil {
			b.Fatal(err)
		}
	}
	var tn, ti, ts, tt int64
	for _, r := range rows {
		tn += r.Naive
		ti += r.SiftInputsFirst
		ts += r.SiftAfterSupport
		tt += r.TwoLevelJump
	}
	b.ReportMetric(float64(tn), "naive-bytes")
	b.ReportMetric(float64(ti), "sift-inputs-bytes")
	b.ReportMetric(float64(ts), "sift-support-bytes")
	b.ReportMetric(float64(tt), "two-level-bytes")
	b.Log("\n" + experiments.FormatTable2(prof, rows))
}

// BenchmarkTable3VsEsterel regenerates Table III on the R3K-class
// target.
func BenchmarkTable3VsEsterel(b *testing.B) {
	prof := vm.R3K()
	var rows []experiments.Table3Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table3(prof)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.CodeBytes), r.Approach+"-bytes")
		b.ReportMetric(float64(r.SimCycles), r.Approach+"-cycles")
	}
	b.Log("\n" + experiments.FormatTable3(prof, rows))
}

// BenchmarkShockAbsorber regenerates the Section V-B redesign.
func BenchmarkShockAbsorber(b *testing.B) {
	prof := vm.HC11()
	var rep *experiments.ShockReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.ShockAbsorberExperiment(prof)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.SynthROM), "synth-ROM-bytes")
	b.ReportMetric(float64(rep.SynthRAM), "synth-RAM-bytes")
	b.ReportMetric(float64(rep.MaxLat), "latency-cycles")
	b.Log("\n" + experiments.FormatShock(prof, rep))
}

// BenchmarkAblationCollapse regenerates the TEST-node collapsing
// ablation.
func BenchmarkAblationCollapse(b *testing.B) {
	prof := vm.HC11()
	var rows []experiments.CollapseRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationCollapse(prof)
		if err != nil {
			b.Fatal(err)
		}
	}
	var pb, cb int64
	for _, r := range rows {
		pb += r.PlainBytes
		cb += r.CollapsedB
	}
	b.ReportMetric(float64(pb), "plain-bytes")
	b.ReportMetric(float64(cb), "collapsed-bytes")
	b.Log("\n" + experiments.FormatCollapse(prof, rows))
}

// BenchmarkAblationRTOS regenerates the RTOS ablation.
func BenchmarkAblationRTOS(b *testing.B) {
	prof := vm.HC11()
	var rep *experiments.RTOSReport
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = experiments.AblationRTOS(prof)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(rep.GeneratedROM), "generated-ROM-bytes")
	b.ReportMetric(float64(rep.CommercialROM), "commercial-ROM-bytes")
	b.ReportMetric(float64(rep.InterruptLat), "irq-latency-cycles")
	b.ReportMetric(float64(rep.PollingLat), "poll-latency-cycles")
	b.Log("\n" + experiments.FormatRTOS(prof, rep))
}

// BenchmarkAblationCopies regenerates the copy-on-entry ablation.
func BenchmarkAblationCopies(b *testing.B) {
	prof := vm.HC11()
	var rows []experiments.CopyRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationCopies(prof)
		if err != nil {
			b.Fatal(err)
		}
	}
	var full, opt int64
	for _, r := range rows {
		full += r.FullROM + r.FullRAM
		opt += r.OptROM + r.OptRAM
	}
	b.ReportMetric(float64(full), "copy-all-bytes")
	b.ReportMetric(float64(opt), "optimized-bytes")
	b.Log("\n" + experiments.FormatCopies(prof, rows))
}

// BenchmarkAblationFalsePaths regenerates the WCET pruning ablation.
func BenchmarkAblationFalsePaths(b *testing.B) {
	prof := vm.HC11()
	var rows []experiments.FalsePathRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationFalsePaths(prof)
		if err != nil {
			b.Fatal(err)
		}
	}
	var plain, pruned int64
	for _, r := range rows {
		plain += r.PlainMax
		pruned += r.PrunedMax
	}
	b.ReportMetric(float64(plain), "plain-wcet-cycles")
	b.ReportMetric(float64(pruned), "pruned-wcet-cycles")
	b.Log("\n" + experiments.FormatFalsePaths(prof, rows))
}

// BenchmarkAblationReduce regenerates the s-graph reduction ablation
// and reports the aggregate code-size and WCET deltas of reduce-off
// versus reduce-on synthesis (bench.sh folds these into BENCH_*.json).
func BenchmarkAblationReduce(b *testing.B) {
	prof := vm.HC11()
	var rows []experiments.ReduceRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationReduce(prof)
		if err != nil {
			b.Fatal(err)
		}
	}
	var pb, rb, pc, rc int64
	elim := 0
	for _, r := range rows {
		pb += r.PlainBytes
		rb += r.ReducedBytes
		pc += r.PlainMaxCyc
		rc += r.ReducedCyc
		elim += r.Stats.TestsEliminated
	}
	b.ReportMetric(float64(pb), "plain-code-bytes")
	b.ReportMetric(float64(rb), "reduced-code-bytes")
	b.ReportMetric(float64(pc), "plain-wcet-cycles")
	b.ReportMetric(float64(rc), "reduced-wcet-cycles")
	b.ReportMetric(float64(elim), "tests-eliminated")
	b.Log("\n" + experiments.FormatReduce(prof, rows))
}

// BenchmarkSynthesisThroughput measures the end-to-end synthesis rate
// over the dashboard (the "total elapsed time to generate the software
// implementation" column of Table III, per module).
func BenchmarkSynthesisThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(vm.HC11()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSGraphBuild isolates the BDD-to-s-graph construction.
func BenchmarkSGraphBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := SynthesizeSource(fig1, Options{Ordering: sgraph.OrderNaive}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCharFn measures the wide characteristic-function build —
// chi = AND_j (z_j <-> f_j(x)) over a population of random machines —
// the BDD-heaviest step of the synthesis front end and the shape the
// complement-edge representation targets (every output literal is
// paired with its complement). It reports the classical node count
// (chi-size), the physical count after complement-edge sharing
// (chi-shared), and the kernel's peak live nodes and op-cache hit
// rate.
func BenchmarkCharFn(b *testing.B) {
	cfg := randcfsm.Config{
		MaxInputs:      6,
		MaxOutputs:     6,
		MaxControlVars: 3,
		MaxDataVars:    2,
		MaxTransitions: 40,
		ValueRange:     8,
	}
	const machines = 12
	var classical, shared, peak, hitPct float64
	for i := 0; i < b.N; i++ {
		classical, shared, peak, hitPct = 0, 0, 0, 0
		r := rand.New(rand.NewSource(1995))
		for k := 0; k < machines; k++ {
			mach := randcfsm.New(r, cfg)
			react, err := cfsm.BuildReactive(mach.C)
			if err != nil {
				b.Fatal(err)
			}
			m := react.Space.M
			classical += float64(m.Size(react.Chi))
			shared += float64(m.SharedSize(react.Chi))
			peak += float64(m.PeakNodes)
			if tot := m.Hits + m.Misses; tot > 0 {
				hitPct += 100 * float64(m.Hits) / float64(tot)
			}
		}
		hitPct /= machines
	}
	b.ReportMetric(classical, "chi-size")
	b.ReportMetric(shared, "chi-shared")
	b.ReportMetric(peak, "peak-nodes")
	b.ReportMetric(hitPct, "cache-hit-%")
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}

// BenchmarkPartitionSweep regenerates the hardware/software
// partitioning trade-off sweep (the co-design decision the paper's
// estimates feed).
func BenchmarkPartitionSweep(b *testing.B) {
	prof := vm.HC11()
	var rows []experiments.PartitionRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.PartitionSweep(prof)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.MaxLatency), r.Name+"-latency")
	}
	b.Log("\n" + experiments.FormatPartition(prof, rows))
}

// BenchmarkAblationChaining regenerates the Section IV-A task-chaining
// measurement.
func BenchmarkAblationChaining(b *testing.B) {
	prof := vm.HC11()
	var rows []experiments.ChainRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.AblationChaining(prof)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(float64(r.MaxLatency), r.Name+"-latency")
	}
	b.Log("\n" + experiments.FormatChaining(prof, rows))
}

// BenchmarkSynthesizeNetwork measures whole-network synthesis through
// internal/pipeline over a 16-CFSM random network: serial-vs-parallel
// worker scaling, then a warm-cache rerun that should cost a small
// fraction of a cold compile, and a warm-disk rerun that a fresh
// process on a populated cache directory pays.
func BenchmarkSynthesizeNetwork(b *testing.B) {
	cfg := randcfsm.Config{
		MaxInputs:      5,
		MaxOutputs:     4,
		MaxControlVars: 3,
		MaxDataVars:    3,
		MaxTransitions: 24,
		ValueRange:     8,
	}
	net, _, err := randcfsm.NewNetwork(rand.New(rand.NewSource(42)), 16, cfg)
	if err != nil {
		b.Fatal(err)
	}
	for _, jobs := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SynthesizeNetwork(net, Options{}, pipeline.Config{Jobs: jobs}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(net.Machines)), "modules")
		})
	}
	b.Run("warm-cache", func(b *testing.B) {
		cache, err := pipeline.NewCache("")
		if err != nil {
			b.Fatal(err)
		}
		// Populate outside the timed region: the measured cost is the
		// all-hits rerun.
		if _, err := SynthesizeNetwork(net, Options{}, pipeline.Config{Jobs: 4, Cache: cache}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := SynthesizeNetwork(net, Options{}, pipeline.Config{Jobs: 4, Cache: cache}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm-disk", func(b *testing.B) {
		// Populate a directory outside the timed region; each iteration
		// opens a fresh Cache on it, so every module is a disk hit
		// (fingerprint, file read and entry decode).
		dir := b.TempDir()
		cache, err := pipeline.NewCache(dir)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := SynthesizeNetwork(net, Options{}, pipeline.Config{Jobs: 4, Cache: cache}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cache, err := pipeline.NewCache(dir)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := SynthesizeNetwork(net, Options{}, pipeline.Config{Jobs: 4, Cache: cache}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
