package polisd

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"polis/internal/cfsm"
	"polis/internal/codegen"
	"polis/internal/designs"
	"polis/internal/pipeline"
	"polis/internal/profile"
	"polis/internal/randcfsm"
	"polis/internal/sgraph"
	"polis/internal/vm"
)

// TestWireRoundTrip: Decode(Encode(net)) over the JSON wire yields a
// valid network whose machines fingerprint identically to the
// originals, for every option set and many generated networks.
func TestWireRoundTrip(t *testing.T) {
	opts := []WireOptions{
		{},
		{Target: "r3k", Ordering: "naive", OptimizeCopies: true, IfThreshold: 3},
		{Ordering: "inputs-first", UseFalsePaths: true, Reduce: true},
	}
	for seed := int64(1); seed <= 10; seed++ {
		net, machines, err := randcfsm.NewNetwork(rand.New(rand.NewSource(seed)), 5, randcfsm.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(EncodeNetwork(net))
		if err != nil {
			t.Fatal(err)
		}
		var w WireNetwork
		if err := json.Unmarshal(blob, &w); err != nil {
			t.Fatal(err)
		}
		got, err := DecodeNetwork(&w)
		if err != nil {
			t.Fatalf("seed %d: decode: %v", seed, err)
		}
		if len(got.Machines) != len(machines) {
			t.Fatalf("seed %d: %d machines decoded, want %d", seed, len(got.Machines), len(machines))
		}
		for _, wo := range opts {
			opt, err := wo.Options()
			if err != nil {
				t.Fatal(err)
			}
			for i, m := range machines {
				want := pipeline.Fingerprint(m.C, opt)
				have := pipeline.Fingerprint(got.Machines[i], opt)
				if want != have {
					t.Errorf("seed %d machine %d opts %+v: fingerprint drifted across the wire", seed, i, wo)
				}
			}
		}
	}
}

// selectorRepro is a wire network whose selector tests a state
// variable of the given domain; below 2 it cannot be a control
// variable.
func selectorRepro(domain int) string {
	return `{"name":"n","signals":[{"name":"a","pure":true}],"machines":[{"name":"m","inputs":["a"],` +
		`"states":[{"name":"s","domain":` + strconv.Itoa(domain) + `}],"tests":[{"kind":"sel","sel":"s"}],` +
		`"trans":[{"guard":[{"test":0,"val":1}]}]}]}`
}

// FuzzDecodeNetwork: no JSON input makes DecodeNetwork panic, and an
// accepted network survives EncodeNetwork then DecodeNetwork with
// every machine's fingerprint unchanged.
func FuzzDecodeNetwork(f *testing.F) {
	seed := func(n *cfsm.Network) {
		blob, err := json.Marshal(EncodeNetwork(n))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	seed(designs.NewDashboard().Net)
	seed(designs.NewShockAbsorber().Net)
	for s := int64(1); s <= 3; s++ {
		n, _, err := randcfsm.NewNetwork(rand.New(rand.NewSource(s)), 3, randcfsm.DefaultConfig())
		if err != nil {
			f.Fatal(err)
		}
		seed(n)
	}
	f.Add([]byte(selectorRepro(0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		var w WireNetwork
		if json.Unmarshal(data, &w) != nil {
			return
		}
		n, err := DecodeNetwork(&w)
		if err != nil {
			return
		}
		again, err := DecodeNetwork(EncodeNetwork(n))
		if err != nil {
			t.Fatalf("re-decoding an accepted network: %v", err)
		}
		if len(again.Machines) != len(n.Machines) {
			t.Fatalf("%d machines came back as %d", len(n.Machines), len(again.Machines))
		}
		for i, m := range n.Machines {
			if pipeline.Fingerprint(m, pipeline.Options{}) != pipeline.Fingerprint(again.Machines[i], pipeline.Options{}) {
				t.Errorf("machine %s: fingerprint changed across EncodeNetwork", m.Name)
			}
		}
	})
}

// TestWireOptionsErrors: unknown names are rejected.
func TestWireOptionsErrors(t *testing.T) {
	if _, err := (WireOptions{Target: "z80"}).Options(); err == nil {
		t.Error("unknown target accepted")
	}
	if _, err := (WireOptions{Ordering: "sorted"}).Options(); err == nil {
		t.Error("unknown ordering accepted")
	}
}

// TestEncodeOptions: for every target, ordering and flag combination,
// EncodeOptions followed by Options (across JSON, as a shard job
// carries them) keys every design module as the original options do,
// and options the wire cannot carry are rejected.
func TestEncodeOptions(t *testing.T) {
	ms := append(designs.NewDashboard().Modules(), designs.NewShockAbsorber().Modules()...)
	if len(ms) != 15 {
		t.Fatalf("%d design modules, want 15", len(ms))
	}
	targets := []*vm.Profile{nil, vm.HC11(), vm.R3K()}
	orderings := []sgraph.Ordering{sgraph.OrderSiftAfterSupport, sgraph.OrderNaive, sgraph.OrderSiftInputsFirst}
	for _, target := range targets {
		for _, ord := range orderings {
			for flags := 0; flags < 16; flags++ {
				opt := pipeline.Options{
					Target:        target,
					Ordering:      ord,
					Codegen:       codegen.Options{OptimizeCopies: flags&1 != 0, IfThreshold: 3 * (flags >> 3)},
					UseFalsePaths: flags&2 != 0,
					Reduce:        flags&4 != 0,
				}
				w, err := EncodeOptions(opt)
				if err != nil {
					t.Fatalf("%+v: %v", opt, err)
				}
				blob, err := json.Marshal(w)
				if err != nil {
					t.Fatal(err)
				}
				var back WireOptions
				if err := json.Unmarshal(blob, &back); err != nil {
					t.Fatal(err)
				}
				got, err := back.Options()
				if err != nil {
					t.Fatalf("%s: %v", blob, err)
				}
				for _, m := range ms {
					if pipeline.Fingerprint(m, got) != pipeline.Fingerprint(m, opt) {
						t.Fatalf("%s: module %s keyed differently after the wire", blob, m.Name)
					}
				}
			}
		}
	}
	for name, opt := range map[string]pipeline.Options{
		"profile":        {Profile: &profile.Profile{}},
		"unknown target": {Target: &vm.Profile{Name: "z80"}},
		"unknown order":  {Ordering: sgraph.Ordering(9)},
	} {
		if w, err := EncodeOptions(opt); err == nil {
			t.Errorf("%s: encoded as %+v", name, w)
		}
	}
}

func testServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	})
	return s, hs
}

func postSynth(t *testing.T, url string, req SynthRequest) (*SynthResponse, int) {
	t.Helper()
	req.Aggregate = true
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.Post(url+"/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var resp SynthResponse
	if hr.StatusCode == http.StatusOK || hr.StatusCode == http.StatusGatewayTimeout ||
		hr.StatusCode == http.StatusMultiStatus {
		if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
			t.Fatalf("status %d: bad body: %v", hr.StatusCode, err)
		}
	}
	return &resp, hr.StatusCode
}

func testNetwork(t *testing.T, seed int64, n int) (*WireNetwork, []*randcfsm.Machine) {
	t.Helper()
	net, machines, err := randcfsm.NewNetwork(rand.New(rand.NewSource(seed)), n, randcfsm.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return EncodeNetwork(net), machines
}

// TestServerIncremental: resubmitting a network after editing one
// machine re-synthesizes exactly that machine; everything else is
// served from the warm cache.
func TestServerIncremental(t *testing.T) {
	_, hs := testServer(t, Config{Workers: 2})
	wire, machines := testNetwork(t, 42, 4)

	resp, code := postSynth(t, hs.URL, SynthRequest{Network: wire})
	if code != http.StatusOK {
		t.Fatalf("cold request: status %d", code)
	}
	if resp.Misses != 4 || resp.Errors != 0 {
		t.Fatalf("cold request: %d misses (want 4), %d errors", resp.Misses, resp.Errors)
	}

	resp, code = postSynth(t, hs.URL, SynthRequest{Network: wire})
	if code != http.StatusOK {
		t.Fatalf("warm request: status %d", code)
	}
	if resp.MemHits != 4 || resp.Misses != 0 {
		t.Fatalf("warm request: %d mem hits, %d misses, want 4 and 0", resp.MemHits, resp.Misses)
	}

	victim := 2
	randcfsm.Mutate(rand.New(rand.NewSource(7)), machines[victim])
	wire.Machines[victim] = *encodeMachine(machines[victim].C)
	resp, code = postSynth(t, hs.URL, SynthRequest{Network: wire})
	if code != http.StatusOK {
		t.Fatalf("edited request: status %d", code)
	}
	if resp.Misses != 1 || resp.MemHits != 3 || resp.Errors != 0 {
		t.Fatalf("edited request: %d misses, %d mem hits (want 1 and 3): %+v", resp.Misses, resp.MemHits, resp.Results)
	}
	for _, r := range resp.Results {
		want := "mem"
		if r.Module == machines[victim].C.Name {
			want = "miss"
		}
		if r.Cache != want {
			t.Errorf("module %s served from %q, want %q", r.Module, r.Cache, want)
		}
	}
}

// TestServerSingleflight: N identical concurrent requests run the
// synthesis pipeline exactly once per distinct module; every other
// module result is a dedup join or a cache hit.
func TestServerSingleflight(t *testing.T) {
	const N, modules = 16, 4
	s, hs := testServer(t, Config{Workers: 2, QueueDepth: N * modules})
	wire, _ := testNetwork(t, 99, modules)

	var wg sync.WaitGroup
	responses := make([]*SynthResponse, N)
	codes := make([]int, N)
	for i := 0; i < N; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], codes[i] = postSynth(t, hs.URL, SynthRequest{Network: wire})
		}(i)
	}
	wg.Wait()

	var misses, served int
	for i, resp := range responses {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, codes[i])
		}
		if resp.Errors != 0 {
			t.Fatalf("request %d: %d module errors (%s)", i, resp.Errors, resp.Error)
		}
		misses += resp.Misses
		served += resp.Misses + resp.MemHits + resp.DiskHit + resp.Dedups
	}
	if misses != modules {
		t.Errorf("pipeline ran %d times across %d identical requests, want exactly %d", misses, N, modules)
	}
	if served != N*modules {
		t.Errorf("%d module results, want %d", served, N*modules)
	}
	// The process-lifetime collector agrees: one miss per module.
	if colMisses := s.col.Outcomes()[pipeline.OutcomeMiss]; colMisses != modules {
		t.Errorf("collector saw %d misses, want %d", colMisses, modules)
	}
}

// TestServerSingleflightNoSlot: a flight joiner waits for the leader
// without taking a worker slot. With the only slot held, the leader
// of one module cannot start, yet an identical second request joins
// its flight; once the slot is free, both requests are served by the
// one synthesis.
func TestServerSingleflightNoSlot(t *testing.T) {
	s, hs := testServer(t, Config{Workers: 1})
	wire, _ := testNetwork(t, 17, 1)

	s.slots <- struct{}{}
	var wg sync.WaitGroup
	responses := make([]*SynthResponse, 2)
	codes := make([]int, 2)
	for i := range responses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			responses[i], codes[i] = postSynth(t, hs.URL, SynthRequest{Network: wire})
		}(i)
	}
	for deadline := time.Now().Add(10 * time.Second); s.Cache().Stats().DedupJoins != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			<-s.slots
			wg.Wait()
			t.Fatalf("no flight join while the slot was held: cache %+v", s.Cache().Stats())
		}
	}
	<-s.slots
	wg.Wait()

	var misses, dedups int
	for i, resp := range responses {
		if codes[i] != http.StatusOK {
			t.Fatalf("request %d: status %d (summary %+v)", i, codes[i], resp.SynthSummary)
		}
		misses += resp.Misses
		dedups += resp.Dedups
	}
	if misses != 1 || dedups != 1 {
		t.Errorf("%d misses and %d dedups, want 1 and 1", misses, dedups)
	}
}

// TestServerTypedRejections: 429 when the admission queue cannot hold
// the request's modules, 504 when the deadline expires (aggregate
// mode), 400 for malformed input, 413 for oversized batches. A request
// that completes every module after its deadline is still 200.
func TestServerTypedRejections(t *testing.T) {
	t.Run("429", func(t *testing.T) {
		_, hs := testServer(t, Config{Workers: 1, QueueDepth: 1})
		wire, _ := testNetwork(t, 5, 3)
		_, code := postSynth(t, hs.URL, SynthRequest{Network: wire})
		if code != http.StatusTooManyRequests {
			t.Fatalf("status %d, want 429", code)
		}
	})
	t.Run("504", func(t *testing.T) {
		// The test holds the only worker slot for the whole request,
		// so no cold module can start before the deadline, however
		// fast synthesis is.
		s, hs := testServer(t, Config{Workers: 1})
		wire, _ := testNetwork(t, 6, 8)
		s.slots <- struct{}{}
		resp, code := postSynth(t, hs.URL, SynthRequest{Network: wire, DeadlineMS: 20})
		<-s.slots
		if code != http.StatusGatewayTimeout {
			t.Fatalf("status %d, want 504 (summary %+v)", code, resp.SynthSummary)
		}
		if resp.Error == "" || resp.Errors == 0 {
			t.Errorf("504 body carries no error: %+v", resp.SynthSummary)
		}
	})
	// Late but complete is 200; late with a failed module is 504. The
	// request's context is past its deadline before the handler runs.
	lateRequest := func(t *testing.T, s *Server, wire *WireNetwork) (*SynthResponse, int) {
		t.Helper()
		body, err := json.Marshal(&SynthRequest{Network: wire, Aggregate: true})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel()
		req := httptest.NewRequest(http.MethodPost, "/synthesize", bytes.NewReader(body)).WithContext(ctx)
		w := httptest.NewRecorder()
		s.Handler().ServeHTTP(w, req)
		var resp SynthResponse
		if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
			t.Fatalf("status %d: bad body: %v", w.Code, err)
		}
		return &resp, w.Code
	}
	t.Run("late-complete-200", func(t *testing.T) {
		s, hs := testServer(t, Config{Workers: 1})
		wire, _ := testNetwork(t, 6, 3)
		if _, code := postSynth(t, hs.URL, SynthRequest{Network: wire}); code != http.StatusOK {
			t.Fatalf("warming request: status %d", code)
		}
		resp, code := lateRequest(t, s, wire)
		if code != http.StatusOK || resp.Errors != 0 || resp.MemHits != 3 {
			t.Fatalf("status %d, want 200 with 3 mem hits and no errors (summary %+v)", code, resp.SynthSummary)
		}
	})
	t.Run("late-failed-504", func(t *testing.T) {
		s, _ := testServer(t, Config{Workers: 1})
		wire, _ := testNetwork(t, 6, 3)
		resp, code := lateRequest(t, s, wire)
		if code != http.StatusGatewayTimeout || resp.Errors != 3 {
			t.Fatalf("status %d, want 504 with 3 errors (summary %+v)", code, resp.SynthSummary)
		}
	})
	t.Run("400", func(t *testing.T) {
		_, hs := testServer(t, Config{})
		for name, body := range map[string]string{
			"malformed json":     "{",
			"selector domain 0":  `{"network":` + selectorRepro(0) + `}`,
			"selector domain -3": `{"network":` + selectorRepro(-3) + `}`,
			"selector domain 1":  `{"network":` + selectorRepro(1) + `}`,
		} {
			hr, err := http.Post(hs.URL+"/synthesize", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			hr.Body.Close()
			if hr.StatusCode != http.StatusBadRequest {
				t.Errorf("%s: status %d, want 400", name, hr.StatusCode)
			}
		}
	})
	t.Run("413", func(t *testing.T) {
		_, hs := testServer(t, Config{MaxBatch: 2})
		wire, _ := testNetwork(t, 7, 3)
		_, code := postSynth(t, hs.URL, SynthRequest{Network: wire})
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", code)
		}
		// The batch limit applies before the machines are decoded, and
		// the body is capped before it is buffered whole. The body is
		// read whole before it is decoded, so a valid request followed
		// by padding past the cap is refused too.
		small, _ := testNetwork(t, 7, 1)
		valid, err := json.Marshal(&SynthRequest{Network: small})
		if err != nil {
			t.Fatal(err)
		}
		for name, body := range map[string]string{
			"malformed machines":       `{"network":{"name":"n","machines":[{},{},{}]}}`,
			"oversized body":           `{"network":{"name":"` + strings.Repeat("x", 2*maxMachineBytes+1) + `"}}`,
			"valid value then padding": string(valid) + strings.Repeat(" ", 2*maxMachineBytes+1),
		} {
			hr, err := http.Post(hs.URL+"/synthesize", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			hr.Body.Close()
			if hr.StatusCode != http.StatusRequestEntityTooLarge {
				t.Errorf("%s: status %d, want 413", name, hr.StatusCode)
			}
		}
	})
}

// TestServerDrain: Shutdown rejects new work with 503 while letting
// in-flight requests finish, and flips /healthz to 503.
func TestServerDrain(t *testing.T) {
	s, err := New(Config{Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()
	wire, _ := testNetwork(t, 11, 2)

	if _, code := postSynth(t, hs.URL, SynthRequest{Network: wire}); code != http.StatusOK {
		t.Fatalf("pre-drain request: status %d", code)
	}
	hr, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d", hr.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("second drain not idempotent: %v", err)
	}

	if _, code := postSynth(t, hs.URL, SynthRequest{Network: wire}); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: status %d, want 503", code)
	}
	hr, err = http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz after drain: %d, want 503", hr.StatusCode)
	}
}

// TestServerStats: the stats endpoint reflects served work.
func TestServerStats(t *testing.T) {
	s, hs := testServer(t, Config{Workers: 2})
	wire, _ := testNetwork(t, 13, 3)
	postSynth(t, hs.URL, SynthRequest{Network: wire})
	postSynth(t, hs.URL, SynthRequest{Network: wire})

	hr, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	var st Stats
	if err := json.NewDecoder(hr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Requests != 2 || st.OK != 2 {
		t.Errorf("stats: %d requests, %d ok, want 2 and 2", st.Requests, st.OK)
	}
	if st.Modules["miss"] != 3 || st.Modules["mem"] != 3 {
		t.Errorf("stats: modules %v, want 3 miss and 3 mem", st.Modules)
	}
	// Each cold module is looked up once, so the cache counts one
	// miss per cold module.
	if st.Cache.Entries != 3 || st.Cache.MemHits != 3 || st.Cache.Misses != 3 {
		t.Errorf("stats: cache %+v, want 3 entries, 3 mem hits, 3 misses", st.Cache)
	}
	if got := s.Cache().Stats().Misses; got != 3 {
		t.Errorf("cache misses %d, want 3 (one per cold module)", got)
	}
	if st.Report == "" {
		t.Error("stats: empty collector report")
	}
	// Per-stage BDD footprint: the three BDD-bearing stages must have
	// reported live/peak node counts for the synthesized modules.
	if len(st.BDDStages) == 0 {
		t.Fatal("stats: no per-stage BDD statistics")
	}
	stages := make(map[string]pipeline.BDDStageStats)
	for _, s := range st.BDDStages {
		stages[s.Stage] = s
	}
	for _, want := range []string{"reactive", "sift", "s-graph"} {
		s, ok := stages[want]
		if !ok {
			t.Errorf("stats: missing BDD stage %q in %+v", want, st.BDDStages)
			continue
		}
		if s.MaxLiveNodes <= 0 || s.MaxPeakNodes < s.MaxLiveNodes {
			t.Errorf("stats: stage %s node counts implausible: %+v", want, s)
		}
	}
	if stages["reactive"].CacheMisses == 0 {
		t.Error("stats: reactive stage recorded no op-cache traffic")
	}
}

// TestServerDiskCacheAcrossRestarts: a second server instance over
// the same cache directory serves the first instance's work from the
// disk layer.
func TestServerDiskCacheAcrossRestarts(t *testing.T) {
	dir := t.TempDir()
	wire, _ := testNetwork(t, 21, 3)

	_, hs1 := testServer(t, Config{Workers: 2, CacheDir: dir})
	if resp, code := postSynth(t, hs1.URL, SynthRequest{Network: wire}); code != http.StatusOK || resp.Misses != 3 {
		t.Fatalf("first instance: status %d, %d misses", code, resp.Misses)
	}

	_, hs2 := testServer(t, Config{Workers: 2, CacheDir: dir})
	resp, code := postSynth(t, hs2.URL, SynthRequest{Network: wire})
	if code != http.StatusOK {
		t.Fatalf("second instance: status %d", code)
	}
	if resp.DiskHit != 3 || resp.Misses != 0 {
		t.Fatalf("second instance: %d disk hits, %d misses, want 3 and 0", resp.DiskHit, resp.Misses)
	}
}

// TestServerStreamNDJSON: the default (non-aggregate) response is one
// NDJSON line per module plus a summary trailer.
func TestServerStreamNDJSON(t *testing.T) {
	_, hs := testServer(t, Config{Workers: 2})
	wire, _ := testNetwork(t, 31, 3)
	body, _ := json.Marshal(&SynthRequest{Network: wire, IncludeC: true})
	hr, err := http.Post(hs.URL+"/synthesize", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer hr.Body.Close()
	if ct := hr.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	dec := json.NewDecoder(hr.Body)
	var lines int
	var sum SynthSummary
	for dec.More() {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			t.Fatal(err)
		}
		lines++
		var probe SynthSummary
		if json.Unmarshal(raw, &probe); probe.Done {
			sum = probe
			continue
		}
		var res ModuleResult
		if err := json.Unmarshal(raw, &res); err != nil {
			t.Fatal(err)
		}
		if res.Module == "" || res.Fingerprint == "" || res.C == "" {
			t.Errorf("incomplete result line: %+v", res)
		}
	}
	if lines != 4 {
		t.Fatalf("%d NDJSON lines, want 3 results + 1 summary", lines)
	}
	if !sum.Done || sum.Modules != 3 || sum.Errors != 0 {
		t.Fatalf("bad summary: %+v", sum)
	}
}

// TestLoad1000Concurrent: a thousand concurrent requests against one
// server, every one served without transport errors, non-200s or
// module errors, while the pipeline runs at most once per distinct
// module fingerprint.
func TestLoad1000Concurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-connection load run")
	}
	const requests = 1000
	gen := randcfsm.Config{MaxInputs: 2, MaxOutputs: 2, MaxControlVars: 1, MaxDataVars: 1, MaxTransitions: 4, ValueRange: 4}
	s, hs := testServer(t, Config{Workers: 4, QueueDepth: 4096, DefaultDeadline: time.Minute})

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Minute)
	defer cancel()
	rep, err := RunLoad(ctx, LoadConfig{
		URL:         hs.URL,
		Requests:    requests,
		Concurrency: requests, // every request in flight at once
		Networks:    8,
		Modules:     2,
		EditRate:    0.05,
		Gen:         gen,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("\n%s", rep)
	if rep.Requests != requests {
		t.Errorf("%d requests completed, want %d", rep.Requests, requests)
	}
	if rep.Errors != 0 {
		t.Errorf("%d transport errors", rep.Errors)
	}
	if rep.Status[http.StatusOK] != requests {
		t.Errorf("status counts %v, want all %d OK", rep.Status, requests)
	}
	if rep.ModErrors != 0 {
		t.Errorf("%d module errors", rep.ModErrors)
	}
	// Eight base networks of two modules, plus at most one changed
	// module per edit: the pipeline must not run more often than that.
	maxMisses := int64(8*2) + int64(rep.Edits)
	if rep.Misses > maxMisses {
		t.Errorf("%d pipeline runs, want <= %d (16 base modules + %d edits)", rep.Misses, maxMisses, rep.Edits)
	}
	if got := rep.Misses + rep.MemHits + rep.DiskHits + rep.Dedups; got != rep.Modules {
		t.Errorf("outcome sum %d != %d module results", got, rep.Modules)
	}
	// One cache entry per pipeline run (Misses counts lookups, which
	// flight joiners make too — assert the store instead).
	if st := s.Cache().Stats(); int64(st.Entries) > maxMisses {
		t.Errorf("cache holds %d entries, want <= %d", st.Entries, maxMisses)
	}
}

// TestLoadReportString formats without panicking on the zero value.
func TestLoadReportString(t *testing.T) {
	r := &LoadReport{Status: map[int]int{200: 1}}
	if s := r.String(); s == "" {
		t.Error("empty report")
	}
	if (&LoadReport{Status: map[int]int{}}).String() == "" {
		t.Error("empty zero report")
	}
}

// badWireNetwork is a two-module network whose second module decodes
// and validates but fails deterministically in codegen: its assign
// references a variable no symbol table defines.
func badWireNetwork() *WireNetwork {
	return &WireNetwork{
		Name: "partial",
		Signals: []WireSignal{
			{Name: "a", Pure: true},
			{Name: "b", Pure: true},
			{Name: "c", Pure: true},
		},
		Machines: []WireMachine{
			{
				Name:    "good",
				Inputs:  []string{"a"},
				Outputs: []string{"b"},
				Tests:   []WireTest{{Kind: "present", Signal: "a"}},
				Actions: []WireAction{{Kind: "emit", Signal: "b"}},
				Trans:   []WireTrans{{Guard: []WireCond{{Test: 0, Val: 1}}, Actions: []int{0}}},
			},
			{
				Name:    "bad",
				Inputs:  []string{"c"},
				States:  []WireState{{Name: "s0"}},
				Tests:   []WireTest{{Kind: "present", Signal: "c"}},
				Actions: []WireAction{{Kind: "assign", Var: "s0", Expr: &WireExpr{Ref: "no_such_var"}}},
				Trans:   []WireTrans{{Guard: []WireCond{{Test: 0, Val: 1}}, Actions: []int{0}}},
			},
		},
	}
}

// TestAggregatePartialSuccess pins the aggregate path's partial-success
// contract: module errors with no deadline involved return 207
// Multi-Status (not 200), with the healthy module's result intact and
// the failure attributed in the summary.
func TestAggregatePartialSuccess(t *testing.T) {
	_, hs := testServer(t, Config{Workers: 2})
	resp, code := postSynth(t, hs.URL, SynthRequest{Network: badWireNetwork()})
	if code != http.StatusMultiStatus {
		t.Fatalf("status %d, want %d (partial success must not read as full success)", code, http.StatusMultiStatus)
	}
	if resp.Errors != 1 || !strings.Contains(resp.Error, "bad") {
		t.Fatalf("summary %+v does not attribute the failing module", resp.SynthSummary)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("%d results, want 2", len(resp.Results))
	}
	for _, res := range resp.Results {
		switch res.Module {
		case "good":
			if res.Error != "" || res.CodeSize == 0 {
				t.Errorf("healthy module damaged by the failing one: %+v", res)
			}
		case "bad":
			if !strings.Contains(res.Error, "unknown variable") {
				t.Errorf("bad module error %q, want the codegen unknown-variable failure", res.Error)
			}
		}
	}
}

// failAfterWriter is an http.ResponseWriter whose connection "drops"
// after limit successful writes: every later write fails the way a
// hung-up streaming client's socket does.
type failAfterWriter struct {
	hdr    http.Header
	writes int
	limit  int
}

func (w *failAfterWriter) Header() http.Header  { return w.hdr }
func (w *failAfterWriter) WriteHeader(code int) {}
func (w *failAfterWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.limit {
		return 0, errors.New("write tcp: broken pipe")
	}
	return len(p), nil
}

// TestStreamClientGone: a streaming client that hangs up mid-response
// is detected on the next result write; the server stops writing
// (no further results, no trailer), cancels the request's remaining
// module work, counts the event in /stats, and does not count the
// request as served OK or the induced cancellations as module errors.
// The broken connection is simulated with a deterministic failing
// writer: a real socket close races against synthesis speed.
func TestStreamClientGone(t *testing.T) {
	s, hs := testServer(t, Config{Workers: 1, DefaultDeadline: time.Minute})
	wire, _ := testNetwork(t, 77, 8)
	body, _ := json.Marshal(&SynthRequest{Network: wire})

	req := httptest.NewRequest(http.MethodPost, "/synthesize", bytes.NewReader(body))
	w := &failAfterWriter{hdr: make(http.Header), limit: 3}
	s.Handler().ServeHTTP(w, req)

	if w.writes != w.limit+1 {
		t.Errorf("%d writes; want exactly %d (3 results, 1 failed attempt, then silence)", w.writes, w.limit+1)
	}
	if got := s.clientGone.Load(); got != 1 {
		t.Errorf("clientGone = %d, want 1", got)
	}
	if got := s.ok.Load(); got != 0 {
		t.Errorf("request counted as served OK (%d) though nobody read it", got)
	}
	if got := s.modErrs.Load(); got != 0 {
		t.Errorf("%d module errors counted for cancellations the server itself induced", got)
	}

	// The counter is exported through /stats.
	sr, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var st Stats
	if err := json.NewDecoder(sr.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.ClientGone != 1 {
		t.Errorf("stats client_gone = %d, want 1", st.ClientGone)
	}
}
