package polisd

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"polis/internal/cfsm"
	"polis/internal/pipeline"
)

// Config tunes the service.
type Config struct {
	// Workers bounds the number of concurrently synthesizing modules
	// across all requests; <= 0 means 4.
	Workers int
	// QueueDepth bounds the number of admitted in-flight modules
	// across all requests (admission control); a request whose
	// modules do not fit is rejected with 429. <= 0 means 256.
	QueueDepth int
	// MaxBatch bounds the machines of one request; <= 0 means 256.
	MaxBatch int
	// DefaultDeadline applies when a request names none; zero means
	// 30s. MaxDeadline caps request-supplied deadlines; zero means
	// DefaultDeadline*4.
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// CacheDir, if non-empty, adds the persistent on-disk cache
	// layer below the in-memory one.
	CacheDir string
	// Logf receives one structured line per request and lifecycle
	// event; nil disables logging.
	Logf func(format string, args ...any)
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 30 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 4 * c.DefaultDeadline
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// SynthRequest is the body of POST /synthesize.
type SynthRequest struct {
	Network *WireNetwork `json:"network"`
	Options WireOptions  `json:"options"`
	// DeadlineMS bounds the request's wall time (capped by the
	// server's MaxDeadline); 0 uses the server default.
	DeadlineMS int `json:"deadline_ms,omitempty"`
	// IncludeC returns the generated C routine per module.
	IncludeC bool `json:"include_c,omitempty"`
	// Aggregate returns one JSON object instead of streaming NDJSON,
	// and maps a deadline expiry to status 504.
	Aggregate bool `json:"aggregate,omitempty"`
}

// ModuleResult is one per-module result line.
type ModuleResult struct {
	Module      string  `json:"module"`
	Fingerprint string  `json:"fingerprint"`
	Cache       string  `json:"cache"` // miss | mem | disk | dedup
	Ms          float64 `json:"ms"`
	CodeSize    int     `json:"code_size,omitempty"`
	MinCycles   int64   `json:"min_cycles,omitempty"`
	MaxCycles   int64   `json:"max_cycles,omitempty"`
	EstBytes    int64   `json:"est_bytes,omitempty"`
	C           string  `json:"c,omitempty"`
	Error       string  `json:"error,omitempty"`
}

// SynthSummary is the trailer of a response: totals over the request.
type SynthSummary struct {
	Done    bool    `json:"done"`
	Network string  `json:"network"`
	Modules int     `json:"modules"`
	Misses  int     `json:"misses"`
	MemHits int     `json:"mem_hits"`
	DiskHit int     `json:"disk_hits"`
	Dedups  int     `json:"dedups"`
	Errors  int     `json:"errors"`
	Ms      float64 `json:"ms"`
	Error   string  `json:"error,omitempty"`
}

// SynthResponse is the aggregate (non-streaming) response body.
type SynthResponse struct {
	SynthSummary
	Results []ModuleResult `json:"results"`
}

// Stats is the body of GET /stats.
type Stats struct {
	UptimeS     float64 `json:"uptime_s"`
	Draining    bool    `json:"draining"`
	Requests    int64   `json:"requests"`
	OK          int64   `json:"ok"`
	BadRequest  int64   `json:"bad_request"`
	Rejected429 int64   `json:"rejected_429"`
	Rejected503 int64   `json:"rejected_503"`
	Deadline504 int64   `json:"deadline_504"`
	// ClientGone counts streaming requests whose client hung up
	// mid-stream: the server cancels the request's outstanding module
	// work and stops writing instead of synthesizing for nobody.
	ClientGone int64               `json:"client_gone"`
	Modules    map[string]int64    `json:"modules"` // by cache outcome
	ModuleErrs int64               `json:"module_errors"`
	Pending    int64               `json:"pending"` // admitted in-flight modules
	QueueDepth int                 `json:"queue_cap"`
	Workers    int                 `json:"workers"`
	Cache      pipeline.CacheStats `json:"cache"`
	// BDDStages is the per-stage BDD kernel footprint across every
	// module synthesized so far: worst live/peak node counts and
	// per-stage op-cache hit rates (reactive build, sifting, s-graph).
	BDDStages []pipeline.BDDStageStats `json:"bdd_stages"`
	Report    string                   `json:"report"` // Collector text report
}

// errQueueFull is returned by admission control; mapped to 429.
var errQueueFull = errors.New("polisd: admission queue full")

// flight is a server-level singleflight entry: the first request to
// need a fingerprint becomes the leader and occupies one worker; the
// rest wait on done without consuming queue slots or workers.
type srvFlight struct {
	done    chan struct{}
	a       *pipeline.Artifact
	outcome pipeline.Outcome
	err     error
}

type job struct {
	ctx context.Context
	key string
	m   *cfsm.CFSM
	opt pipeline.Options
	fl  *srvFlight
}

// Server is the synthesis service core. Create with New, mount
// Handler on an http.Server, and call Shutdown to drain.
type Server struct {
	cfg   Config
	cache *pipeline.Cache
	col   *pipeline.Collector
	queue chan job
	stop  chan struct{}
	wg    sync.WaitGroup // workers
	reqWG sync.WaitGroup // in-flight /synthesize requests

	flMu    sync.Mutex
	flights map[string]*srvFlight

	start    time.Time
	draining atomic.Bool
	pending  atomic.Int64 // admitted in-flight modules

	requests, ok, badReq, rej429, rej503, ddl504 atomic.Int64
	outMiss, outMem, outDisk, outDedup, modErrs  atomic.Int64
	clientGone                                   atomic.Int64
}

// New builds a Server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	cfg.fill()
	cache, err := pipeline.NewCache(cfg.CacheDir)
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		cache:   cache,
		col:     &pipeline.Collector{},
		queue:   make(chan job, cfg.QueueDepth),
		stop:    make(chan struct{}),
		flights: make(map[string]*srvFlight),
		start:   time.Now(),
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Cache exposes the warm cache (for tests and stats).
func (s *Server) Cache() *pipeline.Cache { return s.cache }

// Collector exposes the process-lifetime trace collector.
func (s *Server) Collector() *pipeline.Collector { return s.col }

func (s *Server) worker() {
	defer s.wg.Done()
	for {
		select {
		case j := <-s.queue:
			if err := j.ctx.Err(); err != nil {
				s.finishFlight(j, nil, pipeline.OutcomeMiss, err)
				continue
			}
			a, out, err := s.cache.SynthesizeCached(j.ctx, j.m, j.opt, s.col)
			s.finishFlight(j, a, out, err)
		case <-s.stop:
			return
		}
	}
}

func (s *Server) finishFlight(j job, a *pipeline.Artifact, out pipeline.Outcome, err error) {
	s.flMu.Lock()
	delete(s.flights, j.key)
	s.flMu.Unlock()
	j.fl.a, j.fl.outcome, j.fl.err = a, out, err
	close(j.fl.done)
}

// synthesizeModule serves one module: warm-cache fast path, then the
// server-level singleflight (join an in-flight identical synthesis
// without occupying a worker), then the admission-gated worker queue.
func (s *Server) synthesizeModule(ctx context.Context, m *cfsm.CFSM, opt pipeline.Options) (*pipeline.Artifact, pipeline.Outcome, error) {
	key := pipeline.Fingerprint(m, opt)
	for {
		if a, fromDisk, ok := s.cache.Get(key); ok {
			s.col.Event(pipeline.Event{Kind: pipeline.EvCacheHit, Module: m.Name, FromDisk: fromDisk})
			if fromDisk {
				return a, pipeline.OutcomeDiskHit, nil
			}
			return a, pipeline.OutcomeMemHit, nil
		}
		s.flMu.Lock()
		fl, joined := s.flights[key]
		if !joined {
			fl = &srvFlight{done: make(chan struct{})}
			s.flights[key] = fl
		}
		s.flMu.Unlock()
		if !joined {
			// Leader: hand the work to the pool. The queue cannot
			// overflow — admission bounds in-flight modules to its
			// capacity — but guard anyway rather than block.
			select {
			case s.queue <- job{ctx: ctx, key: key, m: m, opt: opt, fl: fl}:
			default:
				s.flMu.Lock()
				delete(s.flights, key)
				s.flMu.Unlock()
				fl.err = errQueueFull
				close(fl.done)
				return nil, pipeline.OutcomeMiss, errQueueFull
			}
		} else {
			s.col.Event(pipeline.Event{Kind: pipeline.EvDedup, Module: m.Name})
		}
		select {
		case <-fl.done:
			if fl.err != nil {
				// A leader cancelled by its own request's deadline says
				// nothing about this request: retry (and possibly lead).
				if !joined || !(errors.Is(fl.err, context.Canceled) || errors.Is(fl.err, context.DeadlineExceeded)) {
					return nil, fl.outcome, fl.err
				}
				continue
			}
			if joined {
				return fl.a, pipeline.OutcomeDedup, nil
			}
			return fl.a, fl.outcome, nil
		case <-ctx.Done():
			return nil, pipeline.OutcomeDedup, ctx.Err()
		}
	}
}

// admit reserves n module slots, failing when the admission queue is
// full; release returns them.
func (s *Server) admit(n int) bool {
	for {
		cur := s.pending.Load()
		if cur+int64(n) > int64(s.cfg.QueueDepth) {
			return false
		}
		if s.pending.CompareAndSwap(cur, cur+int64(n)) {
			return true
		}
	}
}

func (s *Server) release(n int) { s.pending.Add(int64(-n)) }

func (s *Server) countOutcome(out pipeline.Outcome) {
	switch out {
	case pipeline.OutcomeMiss:
		s.outMiss.Add(1)
	case pipeline.OutcomeMemHit:
		s.outMem.Add(1)
	case pipeline.OutcomeDiskHit:
		s.outDisk.Add(1)
	case pipeline.OutcomeDedup:
		s.outDedup.Add(1)
	}
}

// Handler returns the service mux:
//
//	POST /synthesize  — synthesize a network (NDJSON stream or aggregate)
//	GET  /stats       — counters, cache and pipeline statistics
//	GET  /healthz     — 200 while serving, 503 while draining
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/synthesize", s.handleSynthesize)
	mux.HandleFunc("/stats", s.handleStats)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// maxMachineBytes is the request-body budget per machine of MaxBatch.
// Wire machines of the sizes the service handles run to about 1.7 KB,
// so the cap only stops bodies that no admissible batch reaches, before
// they are buffered whole.
const maxMachineBytes = 64 << 10

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleSynthesize(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if r.Method != http.MethodPost {
		s.badReq.Add(1)
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	if s.draining.Load() {
		s.rej503.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	s.reqWG.Add(1)
	defer s.reqWG.Done()

	var req SynthRequest
	r.Body = http.MaxBytesReader(w, r.Body, int64(s.cfg.MaxBatch)*maxMachineBytes)
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.badReq.Add(1)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		httpError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	if req.Network != nil && len(req.Network.Machines) > s.cfg.MaxBatch {
		s.badReq.Add(1)
		httpError(w, http.StatusRequestEntityTooLarge, "%d machines exceeds batch limit %d", len(req.Network.Machines), s.cfg.MaxBatch)
		return
	}
	net, err := DecodeNetwork(req.Network)
	if err != nil {
		s.badReq.Add(1)
		httpError(w, http.StatusBadRequest, "bad network: %v", err)
		return
	}
	if len(net.Machines) == 0 {
		s.badReq.Add(1)
		httpError(w, http.StatusBadRequest, "network has no machines")
		return
	}
	opt, err := req.Options.Options()
	if err != nil {
		s.badReq.Add(1)
		httpError(w, http.StatusBadRequest, "bad options: %v", err)
		return
	}

	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
		if deadline > s.cfg.MaxDeadline {
			deadline = s.cfg.MaxDeadline
		}
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	n := len(net.Machines)
	if !s.admit(n) {
		s.rej429.Add(1)
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, "admission queue full (%d in flight, capacity %d)", s.pending.Load(), s.cfg.QueueDepth)
		return
	}
	defer s.release(n)

	t0 := time.Now()
	s.col.Event(pipeline.Event{Kind: pipeline.EvRunStart, Modules: n, Workers: s.cfg.Workers})

	results := make(chan ModuleResult, n)
	for _, m := range net.Machines {
		go func(m *cfsm.CFSM) {
			mt0 := time.Now()
			a, out, err := s.synthesizeModule(ctx, m, opt)
			res := ModuleResult{
				Module:      m.Name,
				Fingerprint: pipeline.Fingerprint(m, opt),
				Cache:       out.String(),
				Ms:          float64(time.Since(mt0).Microseconds()) / 1000,
			}
			if err != nil {
				res.Error = err.Error()
			} else {
				res.CodeSize = a.CodeSize
				res.MinCycles = a.Measured.Min
				res.MaxCycles = a.Measured.Max
				res.EstBytes = a.Estimate.CodeBytes
				if req.IncludeC {
					res.C = a.C
				}
			}
			results <- res
		}(m)
	}

	sum := SynthSummary{Done: true, Network: net.Name, Modules: n}
	var all []ModuleResult
	var enc *json.Encoder
	flusher, _ := w.(http.Flusher)
	if !req.Aggregate {
		w.Header().Set("Content-Type", "application/x-ndjson")
		enc = json.NewEncoder(w)
	}
	clientGone := false
	written := 0
	for i := 0; i < n; i++ {
		res := <-results
		if clientGone {
			// Keep draining so the per-module goroutines exit, but the
			// results are moot: nobody is listening, and the errors the
			// cancellation induced are not module failures.
			continue
		}
		switch res.Error {
		case "":
			switch res.Cache {
			case "miss":
				sum.Misses++
			case "mem":
				sum.MemHits++
			case "disk":
				sum.DiskHit++
			case "dedup":
				sum.Dedups++
			}
		default:
			sum.Errors++
			s.modErrs.Add(1)
			if sum.Error == "" {
				sum.Error = fmt.Sprintf("%s: %s", res.Module, res.Error)
			}
		}
		if res.Error == "" {
			s.countOutcome(outcomeFromString(res.Cache))
		}
		if enc != nil {
			if err := enc.Encode(res); err != nil {
				// The write failed: the client hung up mid-stream.
				// Cancel this request's outstanding module work (warm
				// cache entries and other requests' flights are
				// unaffected) and stop flushing.
				clientGone = true
				s.clientGone.Add(1)
				cancel()
				continue
			}
			written++
			if flusher != nil {
				flusher.Flush()
			}
		} else {
			all = append(all, res)
		}
	}
	sum.Ms = float64(time.Since(t0).Microseconds()) / 1000
	cst := s.cache.Stats()
	s.col.Event(pipeline.Event{Kind: pipeline.EvRunEnd, Duration: time.Since(t0), Cache: &cst})

	status := http.StatusOK
	if sum.Errors > 0 && ctx.Err() != nil {
		status = http.StatusGatewayTimeout
		s.ddl504.Add(1)
		if sum.Error == "" {
			sum.Error = "deadline exceeded"
		}
	} else if sum.Errors > 0 {
		// Partial success: some modules failed on their own, with no
		// deadline involved. The aggregate response says so with 207
		// Multi-Status — per-module errors are in Results and the
		// summary's Errors/Error fields — so callers checking only the
		// status line cannot mistake it for full success. (The
		// streaming path has already committed its status with the
		// first result line; its trailer carries the same fields
		// in-band.)
		status = http.StatusMultiStatus
	}
	if clientGone {
		// Nothing more to write, and the "errors" are our own
		// cancellation: don't send a trailer, don't count the request
		// as served.
		s.cfg.Logf("synthesize net=%s modules=%d client_gone after %d result(s)", net.Name, n, written)
		return
	}
	if enc != nil {
		// Streaming: the status line went out with the first result;
		// the summary trailer carries any deadline error in-band.
		enc.Encode(sum)
	} else {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(status)
		json.NewEncoder(w).Encode(SynthResponse{SynthSummary: sum, Results: all})
	}
	if status == http.StatusOK {
		s.ok.Add(1)
	}
	s.cfg.Logf("synthesize net=%s modules=%d miss=%d mem=%d disk=%d dedup=%d errs=%d status=%d ms=%.1f",
		net.Name, n, sum.Misses, sum.MemHits, sum.DiskHit, sum.Dedups, sum.Errors, status, sum.Ms)
}

func outcomeFromString(s string) pipeline.Outcome {
	switch s {
	case "mem":
		return pipeline.OutcomeMemHit
	case "disk":
		return pipeline.OutcomeDiskHit
	case "dedup":
		return pipeline.OutcomeDedup
	default:
		return pipeline.OutcomeMiss
	}
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	st := Stats{
		UptimeS:     time.Since(s.start).Seconds(),
		Draining:    s.draining.Load(),
		Requests:    s.requests.Load(),
		OK:          s.ok.Load(),
		BadRequest:  s.badReq.Load(),
		Rejected429: s.rej429.Load(),
		Rejected503: s.rej503.Load(),
		Deadline504: s.ddl504.Load(),
		ClientGone:  s.clientGone.Load(),
		Modules: map[string]int64{
			"miss":  s.outMiss.Load(),
			"mem":   s.outMem.Load(),
			"disk":  s.outDisk.Load(),
			"dedup": s.outDedup.Load(),
		},
		ModuleErrs: s.modErrs.Load(),
		Pending:    s.pending.Load(),
		QueueDepth: s.cfg.QueueDepth,
		Workers:    s.cfg.Workers,
		Cache:      s.cache.Stats(),
		BDDStages:  s.col.BDDStages(),
		Report:     s.col.Report(),
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	w.Write([]byte("ok\n"))
}

// Shutdown drains the server: new requests are rejected with 503,
// in-flight requests run to completion (their own deadlines bound the
// wait), then the worker pool stops. The context caps the drain wait.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.draining.Swap(true) {
		return nil
	}
	s.cfg.Logf("draining: waiting for in-flight requests")
	done := make(chan struct{})
	go func() {
		s.reqWG.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("polisd: drain aborted: %w", ctx.Err())
	}
	close(s.stop)
	s.wg.Wait()
	s.cfg.Logf("drained: %d requests served (%d ok), %d modules synthesized",
		s.requests.Load(), s.ok.Load(), s.outMiss.Load())
	return err
}
