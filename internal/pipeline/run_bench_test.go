package pipeline

import (
	"fmt"
	"testing"
)

// BenchmarkRunModules is the randcfsm-driven scale benchmark: a full
// cold synthesis of 100- and 1000-module networks through the worker
// pool. On a 1-CPU host jobs above 1 measure scheduling overhead, not
// speedup; the modules_per_s metric is the comparable figure across
// machines.
func BenchmarkRunModules(b *testing.B) {
	for _, size := range []int{100, 1000} {
		net := testNetwork(b, 42, size)
		for _, jobs := range []int{1, 8} {
			b.Run(fmt.Sprintf("n=%d/jobs=%d", size, jobs), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					// A fresh cache per iteration keeps every run cold:
					// the benchmark measures synthesis, not cache hits.
					cache, err := NewCache("")
					if err != nil {
						b.Fatal(err)
					}
					arts, err := RunModules(net.Machines, Options{}, Config{Jobs: jobs, Cache: cache})
					if err != nil {
						b.Fatal(err)
					}
					if len(arts) != size {
						b.Fatalf("%d artifacts, want %d", len(arts), size)
					}
				}
				b.ReportMetric(float64(size)*float64(b.N)/b.Elapsed().Seconds(), "modules_per_s")
			})
		}
	}
}
