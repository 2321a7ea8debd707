package pipeline

import (
	"context"
	"runtime"
	"runtime/debug"
	"testing"

	"polis/internal/codegen"
	"polis/internal/designs"
	"polis/internal/estimate"
	"polis/internal/sgraph"
	"polis/internal/vm"
)

// BenchmarkBackend measures the stages after the s-graph, one
// sub-benchmark per stage, over the back-end golden's 75 modules on
// HC11 with default options: reduce (on a fresh clone of each
// unreduced graph; the clone is not timed), routine (codegen.NewRoutine
// over each reduced graph), then assemble, emit-c and estimate over the
// prebuilt routines and analyze-cycles, listing and code-size over
// their programs. One op is the stage over every module.
func BenchmarkBackend(b *testing.B) {
	opt := Options{}
	opt.fill()
	ms := backendGoldenModules()
	raw := make([]*sgraph.SGraph, len(ms))
	reduced := make([]*sgraph.SGraph, len(ms))
	routines := make([]*codegen.Routine, len(ms))
	progs := make([]*vm.Program, len(ms))
	sigs := make([]codegen.SignalMap, len(ms))
	for i, m := range ms {
		sg, err := SynthesizeGraph(context.Background(), m, opt, nil)
		if err != nil {
			b.Fatal(err)
		}
		raw[i] = sg.SGraph
		reduced[i] = sg.SGraph.Clone()
		reduced[i].Reduce(opt.ReduceOpt)
		sigs[i] = codegen.NewSignalMap(m)
		routines[i] = codegen.NewRoutine(reduced[i], opt.Codegen)
		if progs[i], err = routines[i].Assemble(sigs[i]); err != nil {
			b.Fatal(err)
		}
	}
	params, err := estimate.CalibrateCached(opt.Target)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("reduce", func(b *testing.B) {
		b.ReportAllocs()
		gs := make([]*sgraph.SGraph, len(raw))
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			for j, g := range raw {
				gs[j] = g.Clone()
			}
			b.StartTimer()
			for _, g := range gs {
				g.Reduce(opt.ReduceOpt)
			}
		}
	})
	b.Run("routine", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range reduced {
				routineSink = codegen.NewRoutine(g, opt.Codegen)
			}
		}
	})
	b.Run("assemble", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, r := range routines {
				if _, err := r.Assemble(sigs[j]); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("emit-c", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range routines {
				cSink = r.EmitC()
			}
		}
	})
	b.Run("analyze-cycles", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, p := range progs {
				if _, err := vm.AnalyzeCycles(opt.Target, p, codegen.EntryLabel(ms[j])); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("listing", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range progs {
				cSink = p.Listing()
			}
		}
	})
	b.Run("code-size", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, p := range progs {
				sizeSink = opt.Target.CodeSize(p)
			}
		}
	})
	b.Run("estimate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, r := range routines {
				estSink = estimate.EstimateRoutine(r, params, estimate.Options{})
			}
		}
	})
}

var (
	routineSink *codegen.Routine
	cSink       string
	sizeSink    int
	estSink     estimate.Result
)

// raceBuild is set under the race detector, whose instrumentation
// changes allocation counts.
var raceBuild bool

// bddDebugBuild is set under the bdddebug tag, where released BDD
// managers are never reused and the owner check allocates.
var bddDebugBuild bool

// TestBackendAllocs gates the allocations of the back end of the
// paper's two designs: one codegen.Routine, then assembly, C emission
// and estimation over it, for each reduced dashboard and
// shock-absorber graph. The ceiling is the count measured when the
// assembler began keeping labels by index and listing notes by
// reference, and C emission began rendering in reused scratch (Go
// 1.24, linux/amd64).
func TestBackendAllocs(t *testing.T) {
	if raceBuild {
		t.Skip("allocation counts differ under the race detector")
	}
	const ceiling = 630
	opt := Options{Reduce: true}
	opt.fill()
	ms := append(designs.NewDashboard().Modules(), designs.NewShockAbsorber().Modules()...)
	gs := make([]*sgraph.SGraph, len(ms))
	sigs := make([]codegen.SignalMap, len(ms))
	for i, m := range ms {
		sg, err := SynthesizeGraph(context.Background(), m, opt, nil)
		if err != nil {
			t.Fatal(err)
		}
		gs[i], sigs[i] = sg.SGraph, codegen.NewSignalMap(m)
	}
	params, err := estimate.CalibrateCached(opt.Target)
	if err != nil {
		t.Fatal(err)
	}
	// A collection empties the pool of instruction buffers, and the
	// next assembly allocates and grows a fresh one; with the collector
	// off the count is exact.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := testing.AllocsPerRun(20, func() {
		for i, g := range gs {
			r := codegen.NewRoutine(g, opt.Codegen)
			if _, err := r.Assemble(sigs[i]); err != nil {
				t.Fatal(err)
			}
			cSink = r.EmitC()
			estSink = estimate.EstimateRoutine(r, params, estimate.Options{})
		}
	})
	if n > ceiling {
		t.Errorf("back end of the two designs: %v allocations per run, ceiling %v", n, ceiling)
	}
}

// synthesizeDesigns returns a function that synthesizes every module
// of the paper's two designs under the options the synthesis benchmark
// uses.
func synthesizeDesigns(t *testing.T) func() {
	opt := Options{Reduce: true}
	ms := append(designs.NewDashboard().Modules(), designs.NewShockAbsorber().Modules()...)
	return func() {
		for _, m := range ms {
			if _, err := SynthesizeModule(m, opt, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSynthesizeAllocs gates the allocations of whole-module synthesis,
// front end and back end, of the paper's two designs under the
// options the synthesis benchmark uses. The ceiling is the count
// measured when the assembler began keeping labels by index and
// listing notes by reference, plus 2% (Go 1.24, linux/amd64).
func TestSynthesizeAllocs(t *testing.T) {
	if raceBuild || bddDebugBuild {
		t.Skip("allocation counts differ under the race detector and the bdddebug tag")
	}
	const ceiling = 4264 * 102 / 100
	// A collection empties the pool of BDD managers, and the next
	// synthesis allocates a fresh one; with the collector off the
	// count is exact.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := testing.AllocsPerRun(5, synthesizeDesigns(t))
	if n > ceiling {
		t.Errorf("synthesis of the two designs: %v allocations per run, ceiling %v", n, ceiling)
	}
}

// TestSynthesizeBytes gates the bytes that synthesis of the paper's two
// designs allocates, as TestSynthesizeAllocs gates their number. The
// ceiling is the figure measured when instructions were packed into 24
// bytes, labels kept by index, listing notes by reference and the C
// text rendered in reused scratch, plus 2% (Go 1.24, linux/amd64).
func TestSynthesizeBytes(t *testing.T) {
	if raceBuild || bddDebugBuild {
		t.Skip("allocation sizes differ under the race detector and the bdddebug tag")
	}
	const ceiling = 226592 * 102 / 100
	const runs = 5
	// Pools keep a buffer per P, so a goroutine that moves to another
	// P misses and allocates afresh; one P, as AllocsPerRun uses, makes
	// the figure exact.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := synthesizeDesigns(t)
	run() // fill the pools, as AllocsPerRun's warm-up run does
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	if n := (after.TotalAlloc - before.TotalAlloc) / runs; n > ceiling {
		t.Errorf("synthesis of the two designs: %v bytes per run, ceiling %v", n, ceiling)
	}
}
