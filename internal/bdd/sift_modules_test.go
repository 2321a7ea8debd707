package bdd_test

import (
	"math/rand"
	"testing"
	"time"

	"polis/internal/cfsm"
	"polis/internal/randcfsm"
)

// BenchmarkSiftModules sifts the reactive functions of a fixed random
// network the way the pipeline does per module: build the
// characteristic function, sift it with each output after its
// support, release the manager for the next module. ns/op and B/op
// cover the whole loop; ns/swap times the sifts alone over their
// adjacent swaps; peak-nodes sums the modules' peak arena sizes, a
// deterministic figure that falls when swaps free dead nodes.
func BenchmarkSiftModules(b *testing.B) {
	net, _, err := randcfsm.NewNetwork(rand.New(rand.NewSource(7)), 24, randcfsm.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	var sift time.Duration
	swaps, peak := 0, 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range net.Machines {
			r, err := cfsm.BuildReactive(m)
			if err != nil {
				b.Fatal(err)
			}
			t := time.Now()
			r.SiftOutputsAfterSupport()
			sift += time.Since(t)
			swaps += r.Space.M.Swaps
			peak += r.Space.M.PeakNodes
			r.Space.M.Release()
		}
	}
	b.ReportMetric(float64(sift.Nanoseconds())/float64(swaps), "ns/swap")
	b.ReportMetric(float64(peak)/float64(b.N), "peak-nodes")
}
