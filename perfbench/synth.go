package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"time"

	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/designs"
	"polis/internal/estimate"
	"polis/internal/pipeline"
	"polis/internal/randcfsm"
	"polis/internal/sgraph"
	"polis/internal/vm"
)

// Sizes of the synthesis workloads' network.
const (
	synthRandModules = 200
	synthScaledEach  = 7  // every seventh random module is built with randcfsm.Scaled(2)
	oracleSnapshots  = 24 // VM-vs-interpreter snapshots per module
)

// synthOpts are the options both synthesis workloads compile with.
var synthOpts = pipeline.Options{Reduce: true}

// synthNet is the synthesis workloads' input: 200 random machines (a
// share of them scaled up, so per-module cost has a tail) plus the
// paper's dashboard and shock-absorber designs.
type synthNet struct {
	machines []*cfsm.CFSM
	ranges   []int64 // value range of each machine's inputs, for snapshots
}

// makeSynthNet generates the machines from the corpus seed and orders
// them by the run seed. The order decides which module the parallel
// workers take last, so it shapes the run's tail.
func makeSynthNet(corpus, seed int64) (*synthNet, error) {
	r := rand.New(rand.NewSource(corpus))
	net := cfsm.NewNetwork("synth")
	sn := &synthNet{}
	for i := 0; i < synthRandModules; i++ {
		cfg := randcfsm.DefaultConfig()
		if i%synthScaledEach == synthScaledEach-1 {
			cfg = randcfsm.Scaled(2)
		}
		m, err := randcfsm.NewInNetwork(r, net, fmt.Sprintf("m%03d", i), cfg)
		if err != nil {
			return nil, err
		}
		sn.machines = append(sn.machines, m.C)
		sn.ranges = append(sn.ranges, cfg.ValueRange)
	}
	for _, m := range append(designs.NewDashboard().Modules(), designs.NewShockAbsorber().Modules()...) {
		sn.machines = append(sn.machines, m)
		sn.ranges = append(sn.ranges, 64)
	}
	rand.New(rand.NewSource(seed)).Shuffle(len(sn.machines), func(i, j int) {
		sn.machines[i], sn.machines[j] = sn.machines[j], sn.machines[i]
		sn.ranges[i], sn.ranges[j] = sn.ranges[j], sn.ranges[i]
	})
	return sn, nil
}

func (sn *synthNet) sizes() string {
	return fmt.Sprintf("modules=%d (random=%d, one in %d scaled; designs=%d) reduce=on",
		len(sn.machines), synthRandModules, synthScaledEach, len(sn.machines)-synthRandModules)
}

// codeMetrics fills the generated-code metrics from a network's
// artifacts: total measured bytes, summed worst-case cycles, and the
// worst estimator error on code size.
func codeMetrics(m map[string]float64, arts []*pipeline.Artifact) {
	var bytes, wcet, worst float64
	for _, a := range arts {
		bytes += float64(a.CodeSize)
		wcet += float64(a.Measured.Max)
		if a.CodeSize > 0 {
			e := 100 * math.Abs(float64(a.Estimate.CodeBytes-int64(a.CodeSize))) / float64(a.CodeSize)
			worst = math.Max(worst, e)
		}
	}
	m["codegen.code_bytes"] = bytes
	m["vm.wcet_cycles"] = wcet
	m["estimate.worst_err_pct"] = worst
}

// runSynthCold times pipeline.Run over the network into a fresh
// in-memory cache each iteration: every stage and the cache's miss and
// store path run. (The on-disk store path is timed by rebuild-disk's
// set-up; inside this loop its file-system writeback made run-to-run
// times swing by a third.)
func runSynthCold(e *env) (*report, error) {
	// Set-up generates the network and synthesizes it once without a
	// cache. That run is the reference: the VM oracle checks it, and
	// every timed run must reproduce it.
	var (
		sn  *synthNet
		ref []*pipeline.Artifact
	)
	setup, err := setupMedian(setupReps, func() error {
		var err error
		if sn, err = makeSynthNet(e.corpus, e.seed); err != nil {
			return err
		}
		ref, err = pipeline.RunModules(sn.machines, synthOpts, pipeline.Config{Jobs: e.jobs})
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := &report{sizes: fmt.Sprintf("%s jobs=%d", sn.sizes(), e.jobs)}
	rep.attempted += int64(len(ref))
	rep.failed += int64(len(vmOracle(sn, ref, e.seed)))

	var got []*pipeline.Artifact
	op := func() (int, error) {
		c, err := pipeline.NewCache("")
		if err != nil {
			return 0, err
		}
		got, err = pipeline.RunModules(sn.machines, synthOpts, pipeline.Config{Jobs: e.jobs, Cache: c})
		return len(sn.machines), err
	}
	after := func() {
		rep.attempted += int64(len(ref))
		rep.failed += int64(len(compareArtifacts(got, ref)))
	}

	if e.traced {
		rep.layers = make(map[string]float64)
		untraced, err := timeLoop(e.budget/2, 3, op, after)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		traced, err := timeLoop(e.budget/2, 3, func() (int, error) {
			c, err := pipeline.NewCache("")
			if err != nil {
				return 0, err
			}
			got, err = tracedSynth(tr, c, sn.machines, e.jobs, true, rep.layers)
			return len(sn.machines), err
		}, after)
		if err != nil {
			return nil, err
		}
		codeMetrics(rep.layers, ref)
		finishTrace(e, tr, rep.layers, synthSpanMetrics, msOf(untraced.durs), msOf(traced.durs))
		return rep, nil
	}
	st, err := timeLoop(e.budget, 3, op, after)
	if err != nil {
		return nil, err
	}
	rep.e2e = map[string]float64{"setup_s": setup}
	st.fill(rep.e2e, 0.95)
	return rep, nil
}

// runRebuildDisk times the same network through a fresh cache opened on
// a directory populated during set-up, so every module is a disk hit.
func runRebuildDisk(e *env) (*report, error) {
	var (
		sn   *synthNet
		cold []*pipeline.Artifact
		dir  string
		n    int
	)
	setup, err := setupMedian(setupReps, func() error {
		var err error
		if sn, err = makeSynthNet(e.corpus, e.seed); err != nil {
			return err
		}
		if dir != "" {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		n++
		dir = filepath.Join(e.work, fmt.Sprintf("rebuild-%d", n))
		c, err := pipeline.NewCache(dir)
		if err != nil {
			return err
		}
		cold, err = pipeline.RunModules(sn.machines, synthOpts, pipeline.Config{Jobs: e.jobs, Cache: c})
		return err
	})
	if err != nil {
		return nil, err
	}
	rep := &report{sizes: fmt.Sprintf("%s jobs=%d", sn.sizes(), e.jobs)}

	var (
		got []*pipeline.Artifact
		c   *pipeline.Cache
	)
	op := func() (int, error) {
		var err error
		if c, err = pipeline.NewCache(dir); err != nil {
			return 0, err
		}
		got, err = pipeline.RunModules(sn.machines, synthOpts, pipeline.Config{Jobs: e.jobs, Cache: c})
		return len(sn.machines), err
	}
	after := func() {
		rep.attempted += int64(len(cold))
		bad := compareArtifacts(got, cold)
		if hits := c.Stats().DiskHits; hits != int64(len(cold)) {
			bad = append(bad, fmt.Sprintf("%d of %d modules served from disk", hits, len(cold)))
		}
		rep.failed += int64(len(bad))
	}
	if _, err := op(); err != nil { // warm the page cache and the runtime
		return nil, err
	}

	if e.traced {
		rep.layers = make(map[string]float64)
		untraced, err := timeLoop(e.budget/2, 3, op, after)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		traced, err := timeLoop(e.budget/2, 3, func() (int, error) {
			var err error
			if c, err = pipeline.NewCache(dir); err != nil {
				return 0, err
			}
			got, err = tracedSynth(tr, c, sn.machines, e.jobs, false, rep.layers)
			return len(sn.machines), err
		}, after)
		if err != nil {
			return nil, err
		}
		codeMetrics(rep.layers, cold)
		finishTrace(e, tr, rep.layers, synthSpanMetrics, msOf(untraced.durs), msOf(traced.durs))
		return rep, nil
	}
	st, err := timeLoop(e.budget, 5, op, after)
	if err != nil {
		return nil, err
	}
	rep.e2e = map[string]float64{"setup_s": setup}
	st.fill(rep.e2e, 0.99)
	return rep, nil
}

// synthSpanMetrics maps the synthesis workloads' span names to
// per-layer metrics.
var synthSpanMetrics = map[string]string{
	"cfsm.BuildReactive":      "cfsm.reactive_s",
	"sgraph.ApplyOrdering":    "sgraph.sift_s",
	"sgraph.FromChi":          "sgraph.build_s",
	"sgraph.Reduce":           "sgraph.reduce_s",
	"codegen.Assemble":        "codegen.assemble_s",
	"codegen.EmitC":           "codegen.emit_c_s",
	"vm.AnalyzeCycles":        "vm.analyze_s",
	"estimate.EstimateSGraph": "estimate.estimate_s",
	"pipeline.Fingerprint":    "pipeline.fingerprint_s",
	"pipeline.Cache.Get":      "pipeline.cache_get_s",
	"pipeline.Cache.Put":      "pipeline.cache_put_s",
}

// tracedSynth is the traced counterpart of pipeline.RunModules with a
// cache: jobs workers take modules in order, fingerprint and look each
// up, and on a miss drive the public stage functions one by one under
// spans, then store the artifact. With wantMiss a hit is an error (the
// cold workload), without it a miss is (the rebuild workload). It adds
// the per-operation BDD, s-graph, cache and worker counters to m.
func tracedSynth(tr *tracer, c *pipeline.Cache, machines []*cfsm.CFSM, jobs int, wantMiss bool,
	m map[string]float64) ([]*pipeline.Artifact, error) {
	opt := synthOpts
	opt.Target = vm.HC11()
	arts := make([]*pipeline.Artifact, len(machines))
	errs := make([]error, len(machines))
	var (
		mu                      sync.Mutex
		busy                    time.Duration
		vertices, peak, swaps   float64
		hits, misses, cacheHits float64
		next                    int
		wg                      sync.WaitGroup
	)
	op := tr.open("op", -1, -1)
	start := time.Now()
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(machines) {
					return
				}
				t := time.Now()
				id := tr.open("module", op, i)
				var key string
				tr.do("pipeline.Fingerprint", id, i, func() { key = pipeline.Fingerprint(machines[i], opt) })
				var a *pipeline.Artifact
				var ok bool
				tr.do("pipeline.Cache.Get", id, i, func() { a, _, ok = c.Get(key) })
				var st stageStats
				switch {
				case ok && wantMiss:
					errs[i] = fmt.Errorf("module %s: unexpected cache hit", machines[i].Name)
				case !ok && !wantMiss:
					errs[i] = fmt.Errorf("module %s: unexpected cache miss", machines[i].Name)
				case !ok:
					a, st, errs[i] = stagedSynthesize(tr, id, i, machines[i], opt)
					if errs[i] == nil {
						tr.do("pipeline.Cache.Put", id, i, func() { c.Put(key, a) })
					}
				}
				tr.close(id)
				arts[i] = a
				mu.Lock()
				busy += time.Since(t)
				vertices += float64(st.vertices)
				peak += float64(st.peak)
				swaps += float64(st.swaps)
				hits += float64(st.hits)
				misses += float64(st.misses)
				if ok {
					cacheHits++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	tr.close(op)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	cs := c.Stats()
	m["sgraph.vertices"] = vertices
	m["bdd.peak_nodes"] = peak
	m["bdd.sift_swaps"] = swaps
	if hits+misses > 0 {
		m["bdd.op_cache_hit_ratio"] = hits / (hits + misses)
	}
	m["pipeline.hit_ratio"] = cacheHits / float64(len(machines))
	m["pipeline.cache_lock_wait_s"] = (cs.GetWait + cs.PutWait).Seconds()
	m["pipeline.worker_idle_ratio"] = 1 - busy.Seconds()/(wall.Seconds()*float64(jobs))
	return arts, nil
}

// stageStats are the per-module counters read after the stage calls.
type stageStats struct {
	vertices, peak, swaps, hits, misses int
}

// stagedSynthesize is pipeline.SynthesizeModule split into its public
// stage calls, each under its own span. The benchmark asserts its C and
// listing are byte-identical to SynthesizeModule's, so the per-stage
// split measures the same work.
func stagedSynthesize(tr *tracer, parent, owner int, m *cfsm.CFSM, opt pipeline.Options) (*pipeline.Artifact, stageStats, error) {
	var (
		st   stageStats
		r    *cfsm.Reactive
		g    *sgraph.SGraph
		prog *vm.Program
		cSrc string
		meas vm.PathCycles
		est  estimate.Result
		err  error
	)
	if tr.do("cfsm.BuildReactive", parent, owner, func() { r, err = cfsm.BuildReactive(m) }); err != nil {
		return nil, st, err
	}
	if tr.do("sgraph.ApplyOrdering", parent, owner, func() { err = sgraph.ApplyOrdering(r, opt.Ordering) }); err != nil {
		return nil, st, err
	}
	if tr.do("sgraph.FromChi", parent, owner, func() { g, err = sgraph.FromChi(r) }); err != nil {
		return nil, st, err
	}
	mgr := r.Space.M
	st.peak, st.swaps, st.hits, st.misses = mgr.PeakNodes, mgr.Swaps, mgr.Hits, mgr.Misses
	var red sgraph.ReduceStats
	if tr.do("sgraph.Reduce", parent, owner, func() {
		red = g.Reduce(opt.ReduceOpt)
		err = g.CheckWellFormed()
	}); err != nil {
		return nil, st, err
	}
	if tr.do("codegen.Assemble", parent, owner, func() {
		prog, err = codegen.Assemble(g, codegen.NewSignalMap(m), opt.Codegen)
	}); err != nil {
		return nil, st, err
	}
	tr.do("codegen.EmitC", parent, owner, func() { cSrc = codegen.EmitC(g, opt.Codegen) })
	if tr.do("vm.AnalyzeCycles", parent, owner, func() {
		meas, err = vm.AnalyzeCycles(opt.Target, prog, codegen.EntryLabel(m))
	}); err != nil {
		return nil, st, err
	}
	params, err := estimate.CalibrateCached(opt.Target)
	if err != nil {
		return nil, st, err
	}
	tr.do("estimate.EstimateSGraph", parent, owner, func() {
		est = estimate.EstimateSGraph(g, params, estimate.Options{Codegen: opt.Codegen, UseFalsePaths: opt.UseFalsePaths})
	})
	stats := g.ComputeStats()
	st.vertices = stats.Vertices
	return &pipeline.Artifact{
		Module: m.Name, NumTests: len(m.Tests), NumActions: len(m.Actions), NumTrans: len(m.Trans),
		C: cSrc, Listing: prog.Listing(), Estimate: est, Measured: meas,
		CodeSize: opt.Target.CodeSize(prog), Stats: stats, Reduced: opt.Reduce, Reduce: red,
		CFSM: m, SGraph: g, Program: prog,
	}, st, nil
}
