package pipeline

import (
	"context"
	"testing"

	"polis/internal/codegen"
	"polis/internal/estimate"
	"polis/internal/sgraph"
	"polis/internal/vm"
)

// BenchmarkBackend measures the stages after the s-graph, one
// sub-benchmark per stage, over the back-end golden's 75 modules on
// HC11 with default options: reduce (on a fresh clone of each
// unreduced graph; the clone is not timed), assemble, emit-c,
// analyze-cycles and estimate, each over the reduced graphs. One op is
// the stage over every module.
func BenchmarkBackend(b *testing.B) {
	opt := Options{}
	opt.fill()
	ms := backendGoldenModules()
	raw := make([]*sgraph.SGraph, len(ms))
	reduced := make([]*sgraph.SGraph, len(ms))
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
		if progs[i], err = codegen.Assemble(reduced[i], sigs[i], opt.Codegen); err != nil {
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
	b.Run("assemble", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j, g := range reduced {
				if _, err := codegen.Assemble(g, sigs[j], opt.Codegen); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("emit-c", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range reduced {
				cSink = codegen.EmitC(g, opt.Codegen)
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
	b.Run("estimate", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range reduced {
				estSink = estimate.EstimateSGraph(g, params, estimate.Options{Codegen: opt.Codegen})
			}
		}
	})
}

var (
	cSink   string
	estSink estimate.Result
)
