package polisd

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"polis/internal/randcfsm"
)

// LoadConfig tunes the load generator.
type LoadConfig struct {
	// URL is the service base, e.g. http://127.0.0.1:7315.
	URL string
	// Requests is the total request count; <= 0 means 100.
	Requests int
	// Concurrency is the number of concurrent clients; <= 0 means 8.
	Concurrency int
	// Networks is the number of distinct base networks shared by the
	// clients (client i works on network i mod Networks, so smaller
	// values raise the cross-client cache-hit and dedup rate);
	// <= 0 means Concurrency.
	Networks int
	// Modules is the machine count per network; <= 0 means 4.
	Modules int
	// EditRate is the probability that a client mutates one machine
	// of its network before a request, forcing an incremental
	// re-synthesis of exactly that module.
	EditRate float64
	// Seed makes the generated networks and edit schedule
	// reproducible; 0 means 1.
	Seed int64
	// DeadlineMS is the per-request deadline sent to the server;
	// <= 0 omits it (server default applies).
	DeadlineMS int
	// Gen bounds the generated machines; the zero value means
	// randcfsm.DefaultConfig().
	Gen randcfsm.Config
}

func (c *LoadConfig) fill() {
	if c.Requests <= 0 {
		c.Requests = 100
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 8
	}
	if c.Networks <= 0 {
		c.Networks = c.Concurrency
	}
	if c.Modules <= 0 {
		c.Modules = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Gen == (randcfsm.Config{}) {
		c.Gen = randcfsm.DefaultConfig()
	}
}

// LoadReport aggregates a load run.
type LoadReport struct {
	Requests int           // completed requests (any status)
	Errors   int           // transport-level failures
	Status   map[int]int   // responses by HTTP status
	Edits    int           // requests preceded by a network mutation
	Wall     time.Duration // whole-run wall time
	Reqs     float64       // requests per second

	Modules   int64 // module results received
	Misses    int64
	MemHits   int64
	DiskHits  int64
	Dedups    int64
	ModErrors int64

	P50, P90, P99, Max time.Duration
}

// HitRatio is the fraction of module results served without running
// the synthesis pipeline (memory, disk or dedup).
func (r *LoadReport) HitRatio() float64 {
	if r.Modules == 0 {
		return 0
	}
	return float64(r.MemHits+r.DiskHits+r.Dedups) / float64(r.Modules)
}

// String renders the human-readable report.
func (r *LoadReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "requests: %d in %s (%.1f req/s), %d transport error(s), %d edit(s)\n",
		r.Requests, r.Wall.Round(time.Millisecond), r.Reqs, r.Errors, r.Edits)
	codes := make([]int, 0, len(r.Status))
	for c := range r.Status {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	fmt.Fprintf(&b, "status:  ")
	for _, c := range codes {
		fmt.Fprintf(&b, " %d=%d", c, r.Status[c])
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "modules:  %d (%d miss, %d mem, %d disk, %d dedup, %d error(s)), hit ratio %.1f%%\n",
		r.Modules, r.Misses, r.MemHits, r.DiskHits, r.Dedups, r.ModErrors, 100*r.HitRatio())
	fmt.Fprintf(&b, "latency:  p50 %s  p90 %s  p99 %s  max %s\n",
		r.P50.Round(time.Microsecond), r.P90.Round(time.Microsecond),
		r.P99.Round(time.Microsecond), r.Max.Round(time.Microsecond))
	return b.String()
}

// loadClient is one generator goroutine's state: its own copy of a
// base network (clients with the same base seed own fingerprint-
// identical machines, so their requests dedup server-side) and its
// own rng for the edit schedule.
type loadClient struct {
	rng      *rand.Rand
	machines []*randcfsm.Machine
	body     []byte
	req      SynthRequest
}

func newLoadClient(cfg *LoadConfig, id int) (*loadClient, error) {
	baseSeed := cfg.Seed + int64(id%cfg.Networks)
	net, machines, err := randcfsm.NewNetwork(rand.New(rand.NewSource(baseSeed)), cfg.Modules, cfg.Gen)
	if err != nil {
		return nil, fmt.Errorf("loadgen: client %d: %w", id, err)
	}
	c := &loadClient{
		rng:      rand.New(rand.NewSource(cfg.Seed + 7919*int64(id) + 104729)),
		machines: machines,
		req: SynthRequest{
			Network:    EncodeNetwork(net),
			DeadlineMS: cfg.DeadlineMS,
			Aggregate:  true,
		},
	}
	return c, c.encode()
}

func (c *loadClient) encode() error {
	b, err := json.Marshal(&c.req)
	if err != nil {
		return err
	}
	c.body = b
	return nil
}

// mutate edits one machine of the client's network in place and
// re-encodes the request body.
func (c *loadClient) mutate() error {
	victim := c.machines[c.rng.Intn(len(c.machines))]
	randcfsm.Mutate(c.rng, victim)
	// Re-encode just the edited machine; the rest of the wire
	// network is unchanged.
	for i, m := range c.machines {
		if m == victim {
			c.req.Network.Machines[i] = *encodeMachine(victim.C)
		}
	}
	return c.encode()
}

// RunLoad drives the service at cfg.URL with cfg.Concurrency clients
// until cfg.Requests requests have completed, mutating networks at
// cfg.EditRate, and reports throughput, latency percentiles and the
// cache-hit ratio.
func RunLoad(ctx context.Context, cfg LoadConfig) (*LoadReport, error) {
	cfg.fill()
	clients := make([]*loadClient, cfg.Concurrency)
	for i := range clients {
		c, err := newLoadClient(&cfg, i)
		if err != nil {
			return nil, err
		}
		clients[i] = c
	}
	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Concurrency,
			MaxIdleConnsPerHost: cfg.Concurrency,
		},
	}

	rep := &LoadReport{Status: make(map[int]int)}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		next      atomic.Int64
		wg        sync.WaitGroup
	)
	record := func(status int, lat time.Duration, edited bool, resp *SynthResponse, transportErr error) {
		mu.Lock()
		defer mu.Unlock()
		rep.Requests++
		if edited {
			rep.Edits++
		}
		if transportErr != nil {
			rep.Errors++
			return
		}
		rep.Status[status]++
		latencies = append(latencies, lat)
		if resp != nil {
			rep.Modules += int64(len(resp.Results))
			rep.Misses += int64(resp.Misses)
			rep.MemHits += int64(resp.MemHits)
			rep.DiskHits += int64(resp.DiskHit)
			rep.Dedups += int64(resp.Dedups)
			rep.ModErrors += int64(resp.Errors)
		}
	}

	t0 := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func(c *loadClient) {
			defer wg.Done()
			first := true
			for ctx.Err() == nil && next.Add(1) <= int64(cfg.Requests) {
				edited := false
				if !first && c.rng.Float64() < cfg.EditRate {
					if err := c.mutate(); err == nil {
						edited = true
					}
				}
				first = false
				rt0 := time.Now()
				resp, status, err := c.post(ctx, client, cfg.URL)
				record(status, time.Since(rt0), edited, resp, err)
			}
		}(c)
	}
	wg.Wait()
	rep.Wall = time.Since(t0)
	if rep.Wall > 0 {
		rep.Reqs = float64(rep.Requests) / rep.Wall.Seconds()
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.P50 = percentile(latencies, 0.50)
	rep.P90 = percentile(latencies, 0.90)
	rep.P99 = percentile(latencies, 0.99)
	if n := len(latencies); n > 0 {
		rep.Max = latencies[n-1]
	}
	return rep, nil
}

// percentile returns the nearest-rank p-quantile of a sorted latency
// vector: the smallest sample with at least a p fraction of the data
// at or below it, index ceil(p*n)-1 clamped to the vector. The old
// floor-based index int(p*(n-1)) rounded small samples down — P99 of
// 10 samples landed on index 8, collapsing into P90's bucket instead
// of clamping toward the max — which understated tail latency on
// every short loadgen run.
func percentile(sorted []time.Duration, p float64) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return sorted[i]
}

func (c *loadClient) post(ctx context.Context, client *http.Client, url string) (*SynthResponse, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/synthesize", bytes.NewReader(c.body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	hr, err := client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer hr.Body.Close()
	if hr.StatusCode != http.StatusOK && hr.StatusCode != http.StatusGatewayTimeout {
		io.Copy(io.Discard, hr.Body)
		return nil, hr.StatusCode, nil
	}
	var resp SynthResponse
	if err := json.NewDecoder(hr.Body).Decode(&resp); err != nil {
		return nil, hr.StatusCode, err
	}
	return &resp, hr.StatusCode, nil
}
