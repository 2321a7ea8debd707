// Command perfbench is the repository benchmark: it drives one named
// workload over seeded inputs for a fixed time, checks the outputs
// against independent oracles, and prints every metric by name with its
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured untraced;
// with -trace 1 a separate traced run records spans around the calls
// into each layer and the metrics are the per-layer ones. See README.md
// for the workloads, the metric-to-layer map and the held-out seed.
//
// Run it from the repository root with
//
//	bash perfbench/run.sh --workload synth-cold --seed 1 --seconds 25 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// env is what every workload receives: the seeds, the measuring
// budget and a scratch directory inside the checkout.
type env struct {
	seed    int64 // varies a run's inputs: values, orders, edits, snapshots
	corpus  int64 // fixes the generated machines' shapes, hence the work per run
	budget  time.Duration
	traced  bool
	jobs    int
	work    string
	spanOut string
}

// report is what a workload returns. e2e holds the untraced end-to-end
// metrics, layers the traced per-layer ones; only the map matching the
// run's mode is filled.
type report struct {
	attempted, failed int64
	sizes             string
	e2e               map[string]float64
	layers            map[string]float64
}

// metricDef names a metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the untraced metrics every workload reports; see
// README.md for what each means on each workload. Times are process CPU
// time (all threads, user plus system), which on a shared virtual
// machine excludes the time the host runs other tenants; wall times are
// printed alongside and reported by the traced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_cpu_p50_ms", "ms"},
	{"op_cpu_tail_ms", "ms"},
	{"items_per_cpu_s", "1/s"},
	{"alloc_mb", "MB"},
}

// perLayer lists the traced metrics. Layers a workload does not
// exercise report 0.
var perLayer = []metricDef{
	{"cfsm.reactive_s", "s"},
	{"sgraph.sift_s", "s"},
	{"sgraph.build_s", "s"},
	{"sgraph.reduce_s", "s"},
	{"sgraph.vertices", "count"},
	{"bdd.peak_nodes", "count"},
	{"bdd.sift_swaps", "count"},
	{"bdd.op_cache_hit_ratio", "ratio"},
	{"codegen.assemble_s", "s"},
	{"codegen.code_bytes", "bytes"},
	{"codegen.emit_c_s", "s"},
	{"vm.analyze_s", "s"},
	{"vm.wcet_cycles", "cycles"},
	{"estimate.estimate_s", "s"},
	{"estimate.worst_err_pct", "%"},
	{"pipeline.fingerprint_s", "s"},
	{"pipeline.cache_get_s", "s"},
	{"pipeline.cache_put_s", "s"},
	{"pipeline.cache_lock_wait_s", "s"},
	{"pipeline.hit_ratio", "ratio"},
	{"pipeline.worker_idle_ratio", "ratio"},
	{"polisd.wire_decode_s", "s"},
	{"polisd.handler_s", "s"},
	{"polisd.transport_s", "s"},
	{"polisd.misses", "count"},
	{"polisd.dedups", "count"},
	{"polisd.rejected", "count"},
	{"sim.build_s", "s"},
	{"sim.loop_s", "s"},
	{"rtos.reactions", "count"},
	{"rtos.schedule_calls", "count"},
	{"rtos.busy_cycles", "cycles"},
	{"rtos.utilization", "ratio"},
	{"rtos.cycles_per_reaction", "cycles"},
	{"rtos.latency_p99_cycles", "cycles"},
	{"wall.op_p50_ms", "ms"},
	{"trace.spans", "count"},
	{"trace.overhead_pct", "%"},
}

var workloads = map[string]func(*env) (*report, error){
	"synth-cold":   runSynthCold,
	"rebuild-disk": runRebuildDisk,
	"serve-edit":   runServeEdit,
	"sim-vm":       runSimVM,
}

func main() {
	name := flag.String("workload", "", "workload: synth-cold, rebuild-disk, serve-edit or sim-vm")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	corpus := flag.Int64("corpus", 1, "seed of the generated machine shapes (2 is held out for confirming claims)")
	seconds := flag.Float64("seconds", 10, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *name)
		flag.Usage()
		os.Exit(2)
	}
	if err := mainErr(*name, run, *seed, *corpus, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, run func(*env) (*report, error), seed, corpus int64, seconds float64, traced bool) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "work-")
	if err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(work)
	e := &env{
		seed:    seed,
		corpus:  corpus,
		budget:  time.Duration(seconds * float64(time.Second)),
		traced:  traced,
		jobs:    runtime.GOMAXPROCS(0),
		work:    work,
		spanOut: filepath.Join(root, ".bench_build", fmt.Sprintf("spans-%s-%d.tsv", name, seed)),
	}
	rep, err := run(e)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	header(name, e, rep)
	return emit(rep, traced)
}

// header prints the run header: machine, toolchain, commit, seed and
// workload sizes.
func header(name string, e *env, rep *report) {
	fmt.Printf("# perfbench workload=%s seed=%d corpus=%d seconds=%g trace=%v\n",
		name, e.seed, e.corpus, e.budget.Seconds(), e.traced)
	fmt.Printf("# nproc=%d GOMAXPROCS=%d go=%s commit=%s\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	fmt.Printf("# sizes: %s\n", rep.sizes)
}

// commit names the source revision: the build's VCS stamp, else git,
// else "unknown" (the benchmark may run from an exported tree).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int64                 `json:"attempted"`
	Failed    int64                 `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// emit prints the metric table and the final JSON line.
func emit(rep *report, traced bool) error {
	defs, vals := endToEnd, rep.e2e
	if traced {
		defs, vals = perLayer, rep.layers
	}
	res := jsonResult{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]jsonMetric, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !traced {
			return fmt.Errorf("workload did not report %s", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		fmt.Printf("%-28s %16.6g %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = jsonMetric{Value: v, Unit: d.unit}
	}
	fmt.Printf("error_ratio %d/%d\n", rep.failed, rep.attempted)
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// setupReps is how many times each workload sets up per run.
const setupReps = 7

// setupMedian runs a workload's set-up k times and returns the median
// CPU time in seconds. Each call must leave a complete fixture behind;
// the last one is kept. Before each call and after the last, untimed,
// the file system is flushed, so no set-up's writeback lands in a later
// set-up or in the timed loop, and before each call the heap is
// collected, so each starts from the same state.
func setupMedian(k int, f func() error) (float64, error) {
	var ds []float64
	for i := 0; i < k; i++ {
		syscall.Sync()
		runtime.GC()
		c := cpuNow()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, (cpuNow() - c).Seconds())
	}
	syscall.Sync()
	return median(ds), nil
}

// loopStats summarises a timed loop.
type loopStats struct {
	durs  []time.Duration // wall time of each operation
	cpu   []time.Duration // process CPU time of each operation
	items []float64       // items each operation completed
	alloc uint64          // bytes allocated during the loop
}

// timeLoop calls op until the budget is spent (at least minOps times),
// recording each call's wall and CPU time, item count and allocation. after
// runs off the clock after each call and checks its output.
// Every call starts from a freshly collected heap, so the collections
// inside a call depend on that call's allocation alone.
func timeLoop(budget time.Duration, minOps int, op func() (int, error), after func()) (*loopStats, error) {
	var ms runtime.MemStats
	st := &loopStats{}
	start := time.Now()
	for len(st.durs) < minOps || time.Since(start) < budget {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		alloc0 := ms.TotalAlloc
		t, c := time.Now(), cpuNow()
		n, err := op()
		if err != nil {
			return nil, err
		}
		st.durs = append(st.durs, time.Since(t))
		st.cpu = append(st.cpu, cpuNow()-c)
		runtime.ReadMemStats(&ms)
		st.alloc += ms.TotalAlloc - alloc0
		st.items = append(st.items, float64(n))
		after()
	}
	return st, nil
}

// fill records the loop's end-to-end metrics with the tail taken at
// quantile q.
func (st *loopStats) fill(m map[string]float64, q float64) {
	cpu := msOf(st.cpu)
	printQuantiles("wall", msOf(st.durs), q)
	cpuQuantiles(m, cpu, q)
	m["items_per_cpu_s"] = iqmRate(st.items, cpu)
	m["alloc_mb"] = float64(st.alloc) / 1e6 / float64(len(st.durs))
}

// iqmRate is items per CPU second over the samples whose CPU time per
// item lies between the first and the third quartile (an interquartile
// mean). Sample i completed items[i] > 0 items in cpuMs[i] ms. A plain
// ratio of totals follows a run's few slowest samples (a costly miss,
// a stretch where other tenants compete for caches and memory), which
// moved serve-edit's figure by a quarter between runs of the same code.
func iqmRate(items, cpuMs []float64) float64 {
	idx := make([]int, len(items))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool {
		return cpuMs[idx[a]]/items[idx[a]] < cpuMs[idx[b]]/items[idx[b]]
	})
	var n, ms float64
	for _, i := range idx[len(idx)/4 : len(idx)-len(idx)/4] {
		n += items[i]
		ms += cpuMs[i]
	}
	return n / ms * 1e3
}

// msOf converts durations to milliseconds.
func msOf(ds []time.Duration) []float64 {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / 1e6
	}
	return ms
}

// cpuNow is the process's CPU time so far: every thread, user plus
// system. Time the host gives to other tenants is not in it.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // cannot fail for RUSAGE_SELF and a valid pointer
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuQuantiles records the median and the q-quantile of per-operation
// CPU times in ms. q is fixed per workload, chosen so that at least ten
// samples lie beyond it at the benchmark's run length.
func cpuQuantiles(m map[string]float64, ms []float64, q float64) {
	m["op_cpu_p50_ms"] = median(ms)
	m["op_cpu_tail_ms"] = quantile(ms, q)
	printQuantiles("cpu", ms, q)
}

// printQuantiles prints a sample's size, median and q-quantile.
func printQuantiles(kind string, ms []float64, q float64) {
	fmt.Printf("%s: n=%d min=%.3fms p50=%.3fms p%g=%.3fms max=%.3fms (%d beyond the tail quantile)\n",
		kind, len(ms), quantile(ms, 0), median(ms), 100*q, quantile(ms, q), quantile(ms, 1),
		len(ms)-int(math.Ceil(q*float64(len(ms)))))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile is the nearest-rank q-quantile.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
