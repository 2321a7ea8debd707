package polisd

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"polis/internal/cfsm"
	"polis/internal/pipeline"
)

// plan is an accepted /synthesize request, decoded, checked and
// fingerprinted once per distinct body. Every request with the same
// body serves from the same plan, so its network is shared read-only
// between concurrent requests, as a cache flight already shares its
// leader's machine with the joiners.
type plan struct {
	net       *cfsm.Network
	opt       pipeline.Options
	keys      []string // keys[i] is net.Machines[i]'s fingerprint under opt
	deadline  time.Duration
	includeC  bool
	aggregate bool
	size      int64 // body bytes, the memo's unit of account
}

// newPlan decodes and checks a request body, returning the status to
// reject it with when it does not pass. Trailing bytes after the JSON
// value are ignored.
func (s *Server) newPlan(body []byte) (*plan, int, error) {
	var req SynthRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad request body: %v", err)
	}
	if req.Network != nil && len(req.Network.Machines) > s.cfg.MaxBatch {
		return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("%d machines exceeds batch limit %d", len(req.Network.Machines), s.cfg.MaxBatch)
	}
	net, err := DecodeNetwork(req.Network)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad network: %v", err)
	}
	if len(net.Machines) == 0 {
		return nil, http.StatusBadRequest, fmt.Errorf("network has no machines")
	}
	opt, err := req.Options.Options()
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad options: %v", err)
	}
	deadline := s.cfg.DefaultDeadline
	if req.DeadlineMS > 0 {
		deadline = min(time.Duration(req.DeadlineMS)*time.Millisecond, 4*s.cfg.DefaultDeadline)
	}
	keys := make([]string, len(net.Machines))
	for i, m := range net.Machines {
		keys[i] = pipeline.Fingerprint(m, opt)
	}
	return &plan{
		net:       net,
		opt:       opt,
		keys:      keys,
		deadline:  deadline,
		includeC:  req.IncludeC,
		aggregate: req.Aggregate,
		size:      int64(len(body)),
	}, 0, nil
}

// maxBody is the request-size cap: maxMachineBytes per machine of
// MaxBatch. It is also the plan memo's budget of body bytes.
func (c *Config) maxBody() int64 { return int64(c.MaxBatch) * maxMachineBytes }

// readBody reads a whole request body into one buffer. A declared
// length within limit sizes the buffer up front, with the room
// bytes.Buffer wants for the read that reports the end, so a body of
// known size is read without regrowing.
func readBody(r io.Reader, declared, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if declared >= 0 && declared <= limit {
		buf.Grow(int(declared) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// MemoStats describes the request-plan memo (/stats "request_memo").
type MemoStats struct {
	// Hits counts requests served from a memoized plan: no JSON
	// decode, wire decode or fingerprint. A hit is counted before
	// admission, so a hit later refused with 429 is still a hit.
	Hits int64 `json:"hits"`
	// Misses counts requests whose body had no plan: they were decoded
	// and checked, and memoized only if accepted.
	Misses int64 `json:"misses"`
	// Entries is the number of plans held.
	Entries int `json:"entries"`
	// Bytes is the body bytes of the held plans, never more than the
	// request-size cap (MaxBatch × 64 KiB).
	Bytes int64 `json:"bytes"`
}

// planMemo maps the SHA-256 of an accepted request body to its plan.
// The body bytes of the held plans never exceed budget: an insert that
// would pass it evicts the oldest plans first.
type planMemo struct {
	budget       int64
	hits, misses atomic.Int64

	mu    sync.Mutex
	plans map[[sha256.Size]byte]*plan
	order [][sha256.Size]byte // insertion order, oldest first
	bytes int64
}

func newPlanMemo(budget int64) *planMemo {
	return &planMemo{budget: budget, plans: make(map[[sha256.Size]byte]*plan)}
}

// get returns the plan memoized under key, or nil, and counts the
// lookup as a hit or a miss.
func (m *planMemo) get(key [sha256.Size]byte) *plan {
	m.mu.Lock()
	p := m.plans[key]
	m.mu.Unlock()
	if p != nil {
		m.hits.Add(1)
	} else {
		m.misses.Add(1)
	}
	return p
}

// put memoizes p under key and returns the plan the memo holds for
// key: p, or the plan of a concurrent request with the same body that
// got there first, so that such requests share one plan.
func (m *planMemo) put(key [sha256.Size]byte, p *plan) *plan {
	m.mu.Lock()
	defer m.mu.Unlock()
	if q := m.plans[key]; q != nil {
		return q
	}
	for len(m.order) > 0 && m.bytes+p.size > m.budget {
		old := m.order[0]
		m.order = m.order[1:]
		m.bytes -= m.plans[old].size
		delete(m.plans, old)
	}
	m.plans[key] = p
	m.order = append(m.order, key)
	m.bytes += p.size
	return p
}

func (m *planMemo) stats() MemoStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return MemoStats{Hits: m.hits.Load(), Misses: m.misses.Load(), Entries: len(m.plans), Bytes: m.bytes}
}
