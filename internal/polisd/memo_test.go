package polisd

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"polis/internal/pipeline"
	"polis/internal/randcfsm"
)

// raceBuild is set under the race detector, whose instrumentation
// changes allocation counts.
var raceBuild bool

// bddDebugBuild is set under the bdddebug tag, where released BDD
// managers are never reused and the owner check allocates.
var bddDebugBuild bool

// serveBody runs one POST /synthesize through the handler, with no
// socket.
func serveBody(h http.Handler, body []byte) *httptest.ResponseRecorder {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/synthesize", bytes.NewReader(body)))
	return w
}

// serveAggregate posts an aggregate body and decodes its response; any
// status but 200 fails the test.
func serveAggregate(t testing.TB, h http.Handler, body []byte) *SynthResponse {
	t.Helper()
	w := serveBody(h, body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var resp SynthResponse
	if err := json.NewDecoder(w.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	return &resp
}

func marshalRequest(t testing.TB, req SynthRequest) []byte {
	t.Helper()
	body, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

func newTestServer(t testing.TB, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// byModule indexes a response's results by module name (aggregate
// results arrive in completion order).
func byModule(resp *SynthResponse) map[string]ModuleResult {
	m := make(map[string]ModuleResult, len(resp.Results))
	for _, r := range resp.Results {
		m[r.Module] = r
	}
	return m
}

// TestMemoRepeat: a repeated body is served from its memoized plan
// with the same module names, fingerprints, code sizes, cycles and mem
// outcomes as the first warm post of that body.
func TestMemoRepeat(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	h := s.Handler()
	wire, _ := testNetwork(t, 3, 4)
	req := SynthRequest{Network: wire, Aggregate: true}
	serveAggregate(t, h, marshalRequest(t, req)) // cold: fills the cache

	// The same request in another encoding is a new body: its first
	// post decodes it over a warm cache.
	body, err := json.MarshalIndent(&req, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	first := byModule(serveAggregate(t, h, body))
	if st := s.memo.stats(); st.Hits != 0 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("memo %+v before the repeat, want 0 hits, 2 misses, 2 entries", st)
	}
	again := byModule(serveAggregate(t, h, body))
	if st := s.memo.stats(); st.Hits != 1 || st.Misses != 2 || st.Entries != 2 {
		t.Fatalf("memo %+v after the repeat, want 1 hit, 2 misses, 2 entries", st)
	}
	if len(again) != len(wire.Machines) || len(first) != len(wire.Machines) {
		t.Fatalf("%d and %d modules, want %d", len(first), len(again), len(wire.Machines))
	}
	for name, a := range again {
		f := first[name]
		if a.Cache != "mem" || f.Cache != "mem" {
			t.Errorf("module %s served from %q then %q, want mem both times", name, f.Cache, a.Cache)
		}
		a.Ms, f.Ms = 0, 0
		if a != f {
			t.Errorf("module %s: repeat %+v, first warm post %+v", name, a, f)
		}
	}
}

// TestMemoKeysOnBody: bodies that differ only in deadline_ms, options
// or whitespace are separate plans, and each runs with its own
// options.
func TestMemoKeysOnBody(t *testing.T) {
	s := newTestServer(t, Config{Workers: 2})
	h := s.Handler()
	wire, machines := testNetwork(t, 8, 2)
	base := SynthRequest{Network: wire, Aggregate: true}
	r3k := base
	r3k.Options = WireOptions{Target: "r3k", Reduce: true}
	late := base
	late.DeadlineMS = 60000
	spaced := append(marshalRequest(t, base), "\n\t "...)
	bodies := []struct {
		name string
		body []byte
		opt  WireOptions
	}{
		{"base", marshalRequest(t, base), base.Options},
		{"options", marshalRequest(t, r3k), r3k.Options},
		{"deadline", marshalRequest(t, late), late.Options},
		{"whitespace", spaced, base.Options},
	}
	for _, b := range bodies {
		opt, err := b.opt.Options()
		if err != nil {
			t.Fatal(err)
		}
		got := byModule(serveAggregate(t, h, b.body))
		for _, m := range machines {
			if want := pipeline.Fingerprint(m.C, opt); got[m.C.Name].Fingerprint != want {
				t.Errorf("%s: module %s fingerprint %s, want %s under its own options",
					b.name, m.C.Name, got[m.C.Name].Fingerprint, want)
			}
		}
	}
	if st := s.memo.stats(); st.Entries != len(bodies) || st.Misses != int64(len(bodies)) || st.Hits != 0 {
		t.Errorf("memo %+v, want %d entries and misses, no hits", st, len(bodies))
	}
	var plans []*plan
	for _, b := range bodies {
		plans = append(plans, s.memo.plans[sha256.Sum256(b.body)])
	}
	if plans[2].deadline != time.Minute || plans[0].deadline != s.cfg.DefaultDeadline {
		t.Errorf("deadlines %v and %v, want 1m0s and the default %v", plans[2].deadline, plans[0].deadline, s.cfg.DefaultDeadline)
	}
}

// TestMemoRejectedNotMemoized: a rejected body gets the same status
// every time it is posted and never enters the memo.
func TestMemoRejectedNotMemoized(t *testing.T) {
	wire, _ := testNetwork(t, 9, 3)
	for name, tc := range map[string]struct {
		body string
		code int
	}{
		"selector domain 0": {`{"network":` + selectorRepro(0) + `}`, http.StatusBadRequest},
		"unknown target":    {`{"network":` + selectorRepro(2) + `,"options":{"target":"z80"}}`, http.StatusBadRequest},
		"batch limit":       {string(marshalRequest(t, SynthRequest{Network: wire})), http.StatusRequestEntityTooLarge},
	} {
		s := newTestServer(t, Config{MaxBatch: 2})
		h := s.Handler()
		for i := 0; i < 2; i++ {
			if w := serveBody(h, []byte(tc.body)); w.Code != tc.code {
				t.Errorf("%s: post %d: status %d, want %d", name, i, w.Code, tc.code)
			}
		}
		if got := s.badReq.Load(); got != 2 {
			t.Errorf("%s: %d bad requests counted, want 2", name, got)
		}
		if st := s.memo.stats(); st.Entries != 0 || st.Bytes != 0 || st.Hits != 0 {
			t.Errorf("%s: memo %+v, want nothing held and no hits", name, st)
		}
	}
}

// TestMemoBudget: the memo's body bytes stay within the request-size
// cap however many distinct bodies arrive, evicting the oldest first.
func TestMemoBudget(t *testing.T) {
	s := newTestServer(t, Config{Workers: 1, MaxBatch: 1})
	h := s.Handler()
	budget := s.cfg.maxBody()
	wire, _ := testNetwork(t, 10, 1)
	var last []byte
	for i := 0; i < 8; i++ {
		// Distinct deadlines make distinct bodies of one network;
		// trailing whitespace makes each a quarter of the budget.
		body := marshalRequest(t, SynthRequest{Network: wire, DeadlineMS: 60000 + i, Aggregate: true})
		last = append(body, strings.Repeat(" ", int(budget)/4-len(body))...)
		serveAggregate(t, h, last)
		if st := s.memo.stats(); st.Bytes > budget || st.Entries > 4 {
			t.Fatalf("after %d bodies: memo %+v exceeds the budget of %d bytes", i+1, st, budget)
		}
	}
	if st := s.memo.stats(); st.Entries != 4 || st.Bytes != budget {
		t.Errorf("memo %+v, want the 4 newest bodies holding exactly %d bytes", st, budget)
	}
	serveAggregate(t, h, last)
	if st := s.memo.stats(); st.Hits != 1 {
		t.Errorf("the newest body was evicted: memo %+v", st)
	}
}

// TestMemoConcurrentCold: identical cold requests racing through the
// memo end up sharing one plan, and the pipeline runs once per
// distinct module.
func TestMemoConcurrentCold(t *testing.T) {
	const N, modules = 32, 4
	s := newTestServer(t, Config{Workers: 2, QueueDepth: N * modules})
	h := s.Handler()
	wire, _ := testNetwork(t, 12, modules)
	body := marshalRequest(t, SynthRequest{Network: wire, Aggregate: true})

	var wg sync.WaitGroup
	resps := make([]*httptest.ResponseRecorder, N)
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i] = serveBody(h, body)
		}(i)
	}
	wg.Wait()
	var misses int
	for i, w := range resps {
		var resp SynthResponse
		if err := json.NewDecoder(w.Body).Decode(&resp); w.Code != http.StatusOK || err != nil {
			t.Fatalf("request %d: status %d, %v", i, w.Code, err)
		}
		misses += resp.Misses
	}
	if misses != modules {
		t.Errorf("pipeline ran %d times across %d identical requests, want %d", misses, N, modules)
	}
	st := s.memo.stats()
	if st.Entries != 1 || st.Bytes != int64(len(body)) || st.Hits+st.Misses != N {
		t.Errorf("memo %+v, want one plan of %d bytes and %d lookups", st, len(body), N)
	}
}

// TestServeRepeatAllocs gates the allocations of a warm repeated
// request through the handler: one sized body read, one hash and no
// decode. The ceiling is the count measured when the request memo was
// added (Go 1.24, linux/amd64).
func TestServeRepeatAllocs(t *testing.T) {
	if raceBuild || bddDebugBuild {
		t.Skip("allocation counts differ under the race detector and the bdddebug tag")
	}
	const ceiling = 72
	s := newTestServer(t, Config{Workers: 2})
	h := s.Handler()
	body := marshalRequest(t, serveEditRequest(t, 1))
	serveAggregate(t, h, body)
	serveAggregate(t, h, body)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	n := testing.AllocsPerRun(20, func() {
		if w := serveBody(h, body); w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
	})
	if n > ceiling {
		t.Errorf("warm repeated request: %v allocations, ceiling %v", n, ceiling)
	}
}

// serveGen is the machine shape of perfbench's serve-edit workload.
var serveGen = randcfsm.Config{
	MaxInputs: 5, MaxOutputs: 4, MaxControlVars: 3, MaxDataVars: 3,
	MaxTransitions: 24, ValueRange: 8,
}

// serveEditRequest is an aggregate request for one 16-module network
// of the serve-edit shape (a body of about 22 KB).
func serveEditRequest(t testing.TB, seed int64) SynthRequest {
	t.Helper()
	net, _, err := randcfsm.NewNetwork(rand.New(rand.NewSource(seed)), 16, serveGen)
	if err != nil {
		t.Fatal(err)
	}
	return SynthRequest{Network: EncodeNetwork(net), Aggregate: true}
}

// BenchmarkServeRequest times POST /synthesize through the handler,
// with no socket, over a 16-module network whose modules are all warm:
// "repeat" posts the same body every time, "edited" a fresh body with
// one machine changed by randcfsm.Mutate, its module warmed untimed.
func BenchmarkServeRequest(b *testing.B) {
	b.Run("repeat", func(b *testing.B) {
		s := newTestServer(b, Config{Workers: 2})
		h := s.Handler()
		body := marshalRequest(b, serveEditRequest(b, 1))
		serveAggregate(b, h, body)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if w := serveBody(h, body); w.Code != http.StatusOK {
				b.Fatalf("status %d", w.Code)
			}
		}
	})
	b.Run("edited", func(b *testing.B) {
		s := newTestServer(b, Config{Workers: 2})
		h := s.Handler()
		base := serveEditRequest(b, 1)
		serveAggregate(b, h, marshalRequest(b, base))
		opt, err := base.Options.Options()
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(2))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Each edit starts from the base network, as a client
			// replacing its network by an edited base version does.
			b.StopTimer()
			_, machines, err := randcfsm.NewNetwork(rand.New(rand.NewSource(1)), 16, serveGen)
			if err != nil {
				b.Fatal(err)
			}
			v := machines[rng.Intn(len(machines))]
			randcfsm.Mutate(rng, v)
			req := base
			req.Network = &WireNetwork{Name: base.Network.Name, Signals: base.Network.Signals,
				Machines: append([]WireMachine(nil), base.Network.Machines...)}
			for j, m := range machines {
				if m == v {
					req.Network.Machines[j] = *encodeMachine(v.C)
				}
			}
			body := marshalRequest(b, req)
			if _, _, err := s.Cache().SynthesizeCached(context.Background(), v.C, opt, nil); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			if w := serveBody(h, body); w.Code != http.StatusOK {
				b.Fatalf("status %d", w.Code)
			}
		}
	})
}
