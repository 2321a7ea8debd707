package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"polis/internal/cfsm"
	"polis/internal/pipeline"
	"polis/internal/polisd"
	"polis/internal/randcfsm"
)

// Sizes of the service workload.
const (
	serveNetworks = 16 // base networks every client works on
	serveModules  = 16 // machines per network, so per request
	serveEditRate = 0.05
	reqHeader     = "X-Perfbench-Req"
	// serveWindow is how often the loop samples process CPU time.
	// Requests overlap, so CPU per request is measured per window; a
	// 25-second run gives ~125 windows.
	serveWindow = 200 * time.Millisecond
)

// serveGen bounds the service workload's machines (the repository's
// 16-module network benchmark configuration).
var serveGen = randcfsm.Config{
	MaxInputs: 5, MaxOutputs: 4, MaxControlVars: 3, MaxDataVars: 3,
	MaxTransitions: 24, ValueRange: 8,
}

// clientNet is a client's copy of one base network: the seed that
// regenerates the base, the current version and the wire body it posts,
// and the fingerprint of each machine's current and base version.
type clientNet struct {
	seed int64
	net  *cfsm.Network
	body []byte
	fps  map[string]string // module -> fingerprint; replaced, never mutated, on edit
	base map[string]string // fps of the base network
}

// serveClient is one closed-loop client with its own copies of the
// shared base networks.
type serveClient struct {
	rng  *rand.Rand
	nets []*clientNet
}

// serveRecord is one request as the oracle sees it after the run.
type serveRecord struct {
	fps     map[string]string
	err     string
	results []serveResult
}

// version locates one machine version for the oracle's uncached
// synthesis.
type version struct {
	wire   *polisd.WireNetwork
	module string
}

// serveFixture is the running service and its clients.
type serveFixture struct {
	srv     *polisd.Server
	hs      *http.Server
	served  chan error
	url     string
	client  *http.Client
	clients []*serveClient
	opt     pipeline.Options
	base    []*pipeline.Artifact // the base networks, synthesized uncached
	want    map[string]serveExpect

	mu       sync.Mutex
	versions map[string]version      // fingerprint -> machine version
	handler  map[string][2]time.Time // request id -> server-side handler interval
}

func newServeFixture(e *env) (*serveFixture, error) {
	opt, err := polisd.WireOptions{}.Options()
	if err != nil {
		return nil, err
	}
	srv, err := polisd.New(polisd.Config{Workers: e.jobs})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	f := &serveFixture{
		srv:      srv,
		served:   make(chan error, 1),
		url:      "http://" + ln.Addr().String(),
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: e.jobs}},
		opt:      opt,
		want:     make(map[string]serveExpect),
		versions: make(map[string]version),
		handler:  make(map[string][2]time.Time),
	}
	h := srv.Handler()
	f.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := time.Now()
		h.ServeHTTP(w, r)
		if id := r.Header.Get(reqHeader); id != "" {
			f.mu.Lock()
			f.handler[id] = [2]time.Time{t0, time.Now()}
			f.mu.Unlock()
		}
	})}
	go func() { f.served <- f.hs.Serve(ln) }()
	if err := f.populate(e); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// populate builds the clients' networks from the corpus seed, seeds
// each client's picks and edits from the run seed, synthesizes the base
// networks uncached (the oracle's first expected values and the code
// metrics), and warms the service cache.
func (f *serveFixture) populate(e *env) error {
	r := rand.New(rand.NewSource(e.corpus))
	seeds := make([]int64, serveNetworks)
	for i := range seeds {
		seeds[i] = r.Int63()
	}
	for id := 0; id < e.jobs; id++ {
		c := &serveClient{rng: rand.New(rand.NewSource(e.seed*1000003 + int64(id) + 1))}
		for _, s := range seeds {
			nw, machines, err := randcfsm.NewNetwork(rand.New(rand.NewSource(s)), serveModules, serveGen)
			if err != nil {
				return err
			}
			cn := &clientNet{seed: s, net: nw, fps: make(map[string]string)}
			for _, m := range machines {
				cn.fps[m.C.Name] = pipeline.Fingerprint(m.C, f.opt)
			}
			cn.base = cn.fps
			if err := f.encode(cn, ""); err != nil {
				return err
			}
			c.nets = append(c.nets, cn)
		}
		f.clients = append(f.clients, c)
	}
	for _, cn := range f.clients[0].nets {
		arts, err := pipeline.RunModules(cn.net.Machines, f.opt, pipeline.Config{Jobs: e.jobs})
		if err != nil {
			return err
		}
		for _, a := range arts {
			f.want[cn.fps[a.Module]] = serveExpect{a.CodeSize, a.Measured.Max}
		}
		f.base = append(f.base, arts...)
	}
	for _, c := range f.clients {
		for _, cn := range c.nets {
			if rec := f.post(cn, ""); rec.err != "" {
				return errors.New(rec.err)
			}
		}
	}
	return nil
}

// encode renders a network's request body and records the version of
// the named module (every module when edited is "").
func (f *serveFixture) encode(cn *clientNet, edited string) error {
	w := polisd.EncodeNetwork(cn.net)
	b, err := json.Marshal(polisd.SynthRequest{Network: w, Aggregate: true})
	if err != nil {
		return err
	}
	cn.body = b
	f.mu.Lock()
	defer f.mu.Unlock()
	for name, fp := range cn.fps {
		if edited == "" || name == edited {
			f.versions[fp] = version{wire: w, module: name}
		}
	}
	return nil
}

// edit replaces a network by its base version with one machine
// mutated, as a designer trying a change to a specification would.
// Edits do not accumulate: randcfsm.Mutate interns new actions, and each
// action adds a BDD output variable, so mutating the same machine again
// and again made requests and misses costlier the longer a run lasted.
func (f *serveFixture) edit(r *rand.Rand, cn *clientNet) error {
	nw, machines, err := randcfsm.NewNetwork(rand.New(rand.NewSource(cn.seed)), serveModules, serveGen)
	if err != nil {
		return err
	}
	m := machines[r.Intn(len(machines))]
	randcfsm.Mutate(r, m)
	fps := make(map[string]string, len(cn.base))
	for k, v := range cn.base {
		fps[k] = v
	}
	fps[m.C.Name] = pipeline.Fingerprint(m.C, f.opt)
	cn.net, cn.fps = nw, fps
	return f.encode(cn, m.C.Name)
}

// post sends a network's current body and decodes the response. id,
// when set, tags the request so the server-side handler span can be
// matched to it.
func (f *serveFixture) post(cn *clientNet, id string) serveRecord {
	rec := serveRecord{fps: cn.fps}
	req, err := http.NewRequest(http.MethodPost, f.url+"/synthesize", bytes.NewReader(cn.body))
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set(reqHeader, id)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		rec.err = fmt.Sprintf("status %d", resp.StatusCode)
		return rec
	}
	var sr polisd.SynthResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		rec.err = err.Error()
		return rec
	}
	for _, r := range sr.Results {
		rec.results = append(rec.results, serveResult{module: r.Module, fingerprint: r.Fingerprint,
			codeSize: r.CodeSize, maxCycles: r.MaxCycles, err: r.Error})
	}
	return rec
}

func (f *serveFixture) close() {
	f.hs.Shutdown(context.Background())
	<-f.served
	f.srv.Shutdown(context.Background())
	f.client.CloseIdleConnections()
}

// loopResult is one closed-loop run of every client.
type loopResult struct {
	lat     []float64 // wall ms per request
	winReqs []float64 // requests completed in each window
	winCPU  []float64 // process CPU ms spent in each window
	records []serveRecord
	alloc   uint64
}

// cpuSample is the process CPU time when reqs requests had completed.
type cpuSample struct {
	cpu  time.Duration
	reqs int
}

// loop runs every client as a closed loop for the budget: each picks
// one of its networks, edits it with probability serveEditRate (off the
// clock), then posts it and waits for the reply. With a tracer, each
// request gets a round-trip span and the server-side handler span, and
// the wire decode, fingerprints and cache lookups are replayed on the
// same body under spans afterwards. Every serveWindow the process CPU
// time is sampled, client and server together.
func (f *serveFixture) loop(budget time.Duration, tr *tracer) (*loopResult, error) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	res := &loopResult{}
	var (
		mu   sync.Mutex
		wg   sync.WaitGroup
		errs = make([]error, len(f.clients))
		seq  int
	)
	samples := []cpuSample{{cpu: cpuNow()}}
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(serveWindow)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				mu.Lock()
				n := len(res.lat)
				mu.Unlock()
				samples = append(samples, cpuSample{cpuNow(), n})
			}
		}
	}()
	start := time.Now()
	for i, c := range f.clients {
		wg.Add(1)
		go func(i int, c *serveClient) {
			defer wg.Done()
			for time.Since(start) < budget {
				cn := c.nets[c.rng.Intn(len(c.nets))]
				if c.rng.Float64() < serveEditRate {
					if err := f.edit(c.rng, cn); err != nil {
						errs[i] = err
						return
					}
				}
				mu.Lock()
				seq++
				n := seq
				mu.Unlock()
				id := ""
				if tr != nil {
					id = strconv.Itoa(n)
				}
				t0 := time.Now()
				rec := f.post(cn, id)
				t1 := time.Now()
				if tr != nil {
					f.traceRequest(tr, n, id, cn.body, t0, t1)
				}
				mu.Lock()
				res.lat = append(res.lat, float64(t1.Sub(t0))/1e6)
				res.records = append(res.records, rec)
				mu.Unlock()
			}
		}(i, c)
	}
	wg.Wait()
	close(stop)
	<-sampled
	samples = append(samples, cpuSample{cpuNow(), len(res.lat)})
	for i := 1; i < len(samples); i++ {
		if n := samples[i].reqs - samples[i-1].reqs; n > 0 {
			res.winReqs = append(res.winReqs, float64(n))
			res.winCPU = append(res.winCPU, float64(samples[i].cpu-samples[i-1].cpu)/1e6)
		}
	}
	runtime.ReadMemStats(&ms)
	res.alloc = ms.TotalAlloc - alloc0
	return res, errors.Join(errs...)
}

// traceRequest records request n's spans: the client round trip, the
// handler inside it, and the replayed wire decode, fingerprints and
// cache lookups of the same body.
func (f *serveFixture) traceRequest(tr *tracer, n int, id string, body []byte, t0, t1 time.Time) {
	rt := tr.add("polisd.RoundTrip", -1, n, t0, t1)
	f.mu.Lock()
	h, ok := f.handler[id]
	delete(f.handler, id)
	f.mu.Unlock()
	if ok {
		tr.add("polisd.Handler", rt, n, h[0], h[1])
	}
	replay := tr.open("replay", -1, n)
	defer tr.close(replay)
	var (
		req polisd.SynthRequest
		nw  *cfsm.Network
		err error
	)
	tr.do("polisd.DecodeWire", replay, n, func() {
		if err = json.Unmarshal(body, &req); err == nil {
			nw, err = polisd.DecodeNetwork(req.Network)
		}
	})
	if err != nil {
		return
	}
	cache := f.srv.Cache()
	for _, m := range nw.Machines {
		var key string
		tr.do("pipeline.Fingerprint", replay, n, func() { key = pipeline.Fingerprint(m, f.opt) })
		tr.do("pipeline.Cache.Get", replay, n, func() { cache.Get(key) })
	}
}

// expect returns the uncached synthesis result of the machine version
// with fingerprint fp, synthesizing it on first use.
func (f *serveFixture) expect(fp string) (serveExpect, error) {
	if w, ok := f.want[fp]; ok {
		return w, nil
	}
	v, ok := f.versions[fp]
	if !ok {
		return serveExpect{}, fmt.Errorf("no recorded version for fingerprint %s", fp)
	}
	nw, err := polisd.DecodeNetwork(v.wire)
	if err != nil {
		return serveExpect{}, err
	}
	for _, m := range nw.Machines {
		if m.Name == v.module {
			a, err := pipeline.SynthesizeModule(m, f.opt, nil)
			if err != nil {
				return serveExpect{}, err
			}
			f.want[fp] = serveExpect{a.CodeSize, a.Measured.Max}
		}
	}
	return f.want[fp], nil
}

// check runs the service oracle over every recorded request and returns
// the failed request count.
func (f *serveFixture) check(records []serveRecord) (int64, error) {
	var failed int64
	for _, rec := range records {
		for _, fp := range rec.fps {
			if _, err := f.expect(fp); err != nil {
				return 0, err
			}
		}
		bad := serveOracle(rec.results, rec.fps, f.want)
		if rec.err != "" {
			bad = append(bad, rec.err)
		}
		if len(bad) > 0 {
			if failed < 3 {
				fmt.Println("oracle:", bad[0])
			}
			failed++
		}
	}
	return failed, nil
}

// stats reads GET /stats.
func (f *serveFixture) stats() (*polisd.Stats, error) {
	resp, err := f.client.Get(f.url + "/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st polisd.Stats
	return &st, json.NewDecoder(resp.Body).Decode(&st)
}

// runServeEdit drives polisd in-process over loopback HTTP with one
// closed-loop client per CPU.
func runServeEdit(e *env) (*report, error) {
	var f *serveFixture
	setup, err := setupMedian(setupReps, func() error {
		if f != nil {
			f.close()
		}
		var err error
		f, err = newServeFixture(e)
		return err
	})
	if err != nil {
		return nil, err
	}
	defer f.close()
	rep := &report{sizes: fmt.Sprintf("clients=%d networks=%d modules/request=%d edit_rate=%.2f workers=%d closed-loop loopback-http",
		len(f.clients), serveNetworks, serveModules, serveEditRate, e.jobs)}

	account := func(lr *loopResult) error {
		failed, err := f.check(lr.records)
		rep.attempted += int64(len(lr.records))
		rep.failed += failed
		return err
	}
	if e.traced {
		rep.layers = make(map[string]float64)
		untraced, err := f.loop(e.budget/2, nil)
		if err != nil {
			return nil, err
		}
		if err := account(untraced); err != nil {
			return nil, err
		}
		before, err := f.stats()
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		traced, err := f.loop(e.budget/2, tr)
		if err != nil {
			return nil, err
		}
		after, err := f.stats()
		if err != nil {
			return nil, err
		}
		if err := account(traced); err != nil {
			return nil, err
		}
		m := rep.layers
		m["polisd.misses"] = float64(after.Modules["miss"] - before.Modules["miss"])
		m["polisd.dedups"] = float64(after.Modules["dedup"] - before.Modules["dedup"])
		m["polisd.rejected"] = float64(after.Rejected429 + after.Rejected503 - before.Rejected429 - before.Rejected503)
		var served float64
		for k := range after.Modules {
			served += float64(after.Modules[k] - before.Modules[k])
		}
		if served > 0 {
			m["pipeline.hit_ratio"] = 1 - m["polisd.misses"]/served
		}
		reqs := float64(len(traced.lat))
		m["pipeline.cache_lock_wait_s"] = (after.Cache.GetWait + after.Cache.PutWait -
			before.Cache.GetWait - before.Cache.PutWait).Seconds() / reqs
		codeMetrics(m, f.base)
		finishTrace(e, tr, m, map[string]string{
			"polisd.RoundTrip":     "polisd.transport_s",
			"polisd.Handler":       "polisd.handler_s",
			"polisd.DecodeWire":    "polisd.wire_decode_s",
			"pipeline.Fingerprint": "pipeline.fingerprint_s",
			"pipeline.Cache.Get":   "pipeline.cache_get_s",
		}, untraced.lat, traced.lat)
		return rep, nil
	}
	lr, err := f.loop(e.budget, nil)
	if err != nil {
		return nil, err
	}
	if err := account(lr); err != nil {
		return nil, err
	}
	rep.e2e = map[string]float64{
		"setup_s":         setup,
		"items_per_cpu_s": iqmRate(lr.winReqs, lr.winCPU),
		"alloc_mb":        float64(lr.alloc) / 1e6 / float64(len(lr.lat)),
	}
	perReq := make([]float64, len(lr.winCPU))
	for i := range perReq {
		perReq[i] = lr.winCPU[i] / lr.winReqs[i]
	}
	printQuantiles("wall", lr.lat, 0.999)
	cpuQuantiles(rep.e2e, perReq, 0.9)
	return rep, nil
}
