// Process-mode sharding: each shard becomes one `polisc shard-worker`
// OS process. The driver hands a Job (sub-network in the polisd wire
// format plus the shared cache directory) to each worker's stdin; the
// worker synthesizes its modules through the shared on-disk cache and
// emits one NDJSON Result line per module. Artifacts themselves never
// cross the pipe: the disk cache is the shuffle layer, so the reducer
// re-reads every artifact by fingerprint — which also makes a warm
// second run an all-disk-hit run for free.

package shard

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"runtime"
	"strings"
	"sync"
	"time"

	"polis/internal/cfsm"
	"polis/internal/pipeline"
	"polis/internal/polisd"
)

// Job is the unit of work handed to one shard-worker process on its
// standard input.
type Job struct {
	Shard    int                 `json:"shard"`
	CacheDir string              `json:"cache_dir"`
	Network  *polisd.WireNetwork `json:"network"`
	Options  polisd.WireOptions  `json:"options"`
}

// Result is one NDJSON line a shard worker emits per module, in the
// shard's module order. The artifact stays in the shared cache; the
// fingerprint is the reducer's key to fetch it back.
type Result struct {
	Shard       int     `json:"shard"`
	Module      string  `json:"module"`
	Fingerprint string  `json:"fingerprint"`
	Cache       string  `json:"cache"` // "miss" | "mem" | "disk" | "dedup"
	Ms          float64 `json:"ms"`
	Error       string  `json:"error,omitempty"`
}

// Worker is the body of the `polisc shard-worker` subcommand: decode
// one Job from r, synthesize its modules in order through the shared
// on-disk cache, and write one Result line per module to w. Module
// failures are reported in-band (Result.Error) and do not stop the
// remaining modules — shards are independent, so the driver aggregates
// errors across all of them.
func Worker(r io.Reader, w io.Writer) error {
	var job Job
	if err := json.NewDecoder(r).Decode(&job); err != nil {
		return fmt.Errorf("shard worker: decode job: %w", err)
	}
	if job.CacheDir == "" {
		return errors.New("shard worker: job has no cache_dir (the shared disk cache is the shuffle layer)")
	}
	net, err := polisd.DecodeNetwork(job.Network)
	if err != nil {
		return fmt.Errorf("shard worker: %w", err)
	}
	opt, err := job.Options.Options()
	if err != nil {
		return fmt.Errorf("shard worker: %w", err)
	}
	cache, err := pipeline.NewCache(job.CacheDir)
	if err != nil {
		return fmt.Errorf("shard worker: %w", err)
	}
	enc := json.NewEncoder(w)
	for _, m := range net.Machines {
		// One hash per module: the reported fingerprint is the key the
		// artifact is served and stored under (Fingerprint and the
		// synthesis fill opt's defaults alike).
		key := pipeline.Fingerprint(m, opt)
		res := Result{Shard: job.Shard, Module: m.Name, Fingerprint: key}
		t0 := time.Now()
		_, out, err := cache.Serve(context.Background(), key, m.Name, nil, func(ctx context.Context) (*pipeline.Artifact, error) {
			return pipeline.SynthesizeModuleContext(ctx, m, opt, nil)
		})
		res.Ms = float64(time.Since(t0).Microseconds()) / 1000
		res.Cache = out.String()
		if err != nil {
			res.Error = err.Error()
		}
		if err := enc.Encode(res); err != nil {
			return fmt.Errorf("shard worker: emit result: %w", err)
		}
	}
	return nil
}

// RunProcs synthesizes the network's modules in deterministic shards,
// each in its own OS process: workerCmd is the argv prefix of the
// worker (e.g. ["polisc", "shard-worker"]), spawned once per non-empty
// shard with the shard's Job on stdin. The shared opt.CacheDir is the
// shuffle layer: workers publish artifacts there (the
// cross-process-safe CreateTemp+rename publish keeps concurrent
// same-fingerprint writers from tearing files) and the reduce phase
// fetches every artifact back by fingerprint, in network order, so the
// output is byte-identical to an in-process pipeline.Run. Module
// failures do not stop the other shards; the aggregate error names
// each failed module.
func RunProcs(ctx context.Context, net *cfsm.Network, opt Options, workerCmd []string) (*Report, error) {
	if opt.CacheDir == "" {
		return nil, errors.New("shard: process mode needs a cache directory (-cache)")
	}
	if len(workerCmd) == 0 {
		return nil, errors.New("shard: process mode needs a worker command")
	}
	wopt, err := polisd.EncodeOptions(opt.Pipeline)
	if err != nil {
		return nil, fmt.Errorf("shard: options not supported in process mode: %w", err)
	}
	machines := net.Machines
	shards := opt.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	if shards > len(machines) {
		shards = len(machines)
	}
	if shards < 1 {
		shards = 1
	}
	parts := Partition(machines, shards)

	master := pipeline.NewCollector()
	master.Event(pipeline.Event{Kind: pipeline.EvRunStart, Modules: len(machines), Workers: shards})
	start := time.Now()

	stats := make([]ShardStat, shards)
	resultsByModule := make(map[string]Result, len(machines))
	procErrs := make([]error, shards)
	var mu sync.Mutex // guards resultsByModule
	var wg sync.WaitGroup
	for si := range parts {
		stats[si].Shard = si
		stats[si].Modules = len(parts[si])
		if len(parts[si]) == 0 {
			continue
		}
		members := make([]*cfsm.CFSM, len(parts[si]))
		for i, mi := range parts[si] {
			members[i] = machines[mi]
		}
		sub := net.Subnet(fmt.Sprintf("%s-shard%d", net.Name, si), members)
		job, err := json.Marshal(Job{
			Shard:    si,
			CacheDir: opt.CacheDir,
			Network:  polisd.EncodeNetwork(sub),
			Options:  wopt,
		})
		if err != nil {
			return nil, fmt.Errorf("shard %d: encode job: %w", si, err)
		}
		wg.Add(1)
		go func(si int, job []byte) {
			defer wg.Done()
			t0 := time.Now()
			err := runWorker(ctx, workerCmd, job, func(res Result) error {
				out, err := pipeline.ParseOutcome(res.Cache)
				if err != nil {
					return fmt.Errorf("module %s: %w", res.Module, err)
				}
				stats[si].Outcomes[out]++
				master.Event(pipeline.Event{Kind: pipeline.EvCache, Module: res.Module, Outcome: out})
				mu.Lock()
				resultsByModule[res.Module] = res
				mu.Unlock()
				return nil
			})
			stats[si].Wall = time.Since(t0)
			if err != nil {
				procErrs[si] = fmt.Errorf("shard %d: %w", si, err)
			}
		}(si, job)
	}
	wg.Wait()
	for _, err := range procErrs {
		if err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("shard: run cancelled: %w", err)
	}

	// Reduce: fetch every artifact from the shuffle layer by
	// fingerprint, in network order. A fresh cache instance keeps the
	// reducer honest — it can only see what the workers published.
	rcache, err := pipeline.NewCache(opt.CacheDir)
	if err != nil {
		return nil, err
	}
	arts := make([]*pipeline.Artifact, len(machines))
	var moduleErrs []error
	for i, m := range machines {
		res, ok := resultsByModule[m.Name]
		if !ok {
			moduleErrs = append(moduleErrs, fmt.Errorf("module %s: no result from its shard worker", m.Name))
			continue
		}
		if res.Error != "" {
			moduleErrs = append(moduleErrs, fmt.Errorf("module %s: %s", m.Name, res.Error))
			master.Event(pipeline.Event{Kind: pipeline.EvModuleError, Module: m.Name, Err: errors.New(res.Error)})
			continue
		}
		key := pipeline.Fingerprint(m, opt.Pipeline)
		if res.Fingerprint != key {
			moduleErrs = append(moduleErrs, fmt.Errorf("module %s: worker fingerprint %.12s != driver %.12s (options drifted?)",
				m.Name, res.Fingerprint, key))
			continue
		}
		a, _, ok := rcache.Get(key)
		if !ok {
			moduleErrs = append(moduleErrs, fmt.Errorf("module %s: artifact %.12s missing from the shuffle cache", m.Name, key))
			continue
		}
		arts[i] = a
	}

	cst := rcache.Stats()
	master.Event(pipeline.Event{Kind: pipeline.EvRunEnd, Duration: time.Since(start), Cache: &cst})
	rep := &Report{
		Artifacts: arts,
		Shards:    stats,
		Wall:      time.Since(start),
		Collector: master,
	}
	if len(moduleErrs) > 0 {
		return nil, fmt.Errorf("shard: %d of %d module(s) failed: %w",
			len(moduleErrs), len(machines), errors.Join(moduleErrs...))
	}
	return rep, nil
}

// runWorker runs one worker process on job and hands each Result line
// it writes to emit. When reading stops early (a line longer than the
// scanner's limit, a failed read, an undecodable line, or an error
// from emit) the worker is killed before Wait: it may be blocked
// writing to a pipe nobody reads any more, and Wait would not return.
func runWorker(ctx context.Context, argv []string, job []byte, emit func(Result) error) error {
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	cmd.Stdin = bytes.NewReader(job)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("start worker: %w", err)
	}
	if err := readResults(stdout, emit); err != nil {
		// err is the cause: Kill and Wait can only add that the
		// worker was killed, or had exited already.
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return err
	}
	if err := cmd.Wait(); err != nil {
		if msg := strings.TrimSpace(stderr.String()); msg != "" {
			return fmt.Errorf("worker failed: %v: %s", err, msg)
		}
		return fmt.Errorf("worker failed: %w", err)
	}
	return nil
}

// maxResultLine bounds one Result line; the longest field is the
// worker's error text.
const maxResultLine = 1 << 20

// readResults decodes Result lines from r until EOF.
func readResults(r io.Reader, emit func(Result) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxResultLine)
	for sc.Scan() {
		var res Result
		if err := json.Unmarshal(sc.Bytes(), &res); err != nil {
			return fmt.Errorf("bad result line: %w", err)
		}
		if err := emit(res); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("read results: %w", err)
	}
	return nil
}
