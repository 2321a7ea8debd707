// Command polisc is the synthesis driver: it compiles an
// Esterel-subset module (see internal/esterel) into C and virtual
// object code, printing the cost/performance report the POLIS flow
// uses for partitioning decisions.
//
// Usage:
//
//	polisc [-target hc11|r3k] [-order default|naive|inputs-first]
//	       [-j N] [-cache dir] [-stats] [-reduce]
//	       [-shards N] [-profile prof.json]
//	       [-c] [-asm] [-dot] [-optimize-copies] [-o dir] [file.strl]
//	polisc fuzz [-seed N] [-runs N] [-config "k=v,..."]
//	polisc shard-worker   (internal: exec'd by -shards)
//
// -order also accepts sift for default. An unknown -target or -order
// name exits 1 with an error listing the accepted names.
//
// -profile loads an execution profile captured by cfsmsim
// -profile-out and specializes synthesis: it reorders each covered
// module's TEST outcome edges so the observed hot path becomes the
// fall-through path (equivalence-gated), and the report gains the
// profile-weighted expected cycles next to the worst-case bound.
//
// The fuzz subcommand runs the network-scale co-simulation fuzz
// harness (internal/netfuzz): randomized GALS networks simulated in
// both behavioral and cycle-exact mode under differential invariants.
// Without -config each seed draws its own scenario shape; with
// -config the exact scenario replays, which is how a failure printed
// as "polisc fuzz -seed N -config ..." is reproduced.
//
// A source file may contain several modules: same-named signals
// connect them into a network, each module is synthesized separately
// and the generated RTOS is sized for the whole system. Modules are
// compiled concurrently on -j workers (default: all CPUs) through the
// internal/pipeline package; module order in the output is the source
// order regardless of the worker count. -cache names a directory used
// as a content-addressed artifact cache so repeated runs over
// unchanged modules are instant; -stats prints the pipeline's
// per-stage timing, BDD and cache-counter report.
//
// -shards N routes synthesis through the map-reduce driver
// (internal/shard): modules are partitioned into N deterministic
// shards by a hash of their names, each shard runs as a separate
// `polisc shard-worker` process, and the -cache directory becomes the
// shuffle layer the workers publish into (a temporary directory is
// used when -cache is not given); the reducer fetches every artifact
// back from it by fingerprint, in source order, so output is
// byte-identical to an unsharded run for any shard count. In-process
// parallelism is -j. -stats adds the per-shard wall-time and
// miss|mem|disk|dedup attribution lines to the report. With no file, the
// paper's Fig. 1 module is synthesized as a demo. With -o, the
// generated C sources (one per module, plus polis_rtos.h and the RTOS)
// are written into the given directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"polis"
	"polis/internal/codegen"
	"polis/internal/esterel"
	"polis/internal/estimate"
	"polis/internal/netfuzz"
	"polis/internal/pipeline"
	"polis/internal/profile"
	"polis/internal/rtos"
	"polis/internal/sgraph"
	"polis/internal/shard"
	"polis/internal/vm"
)

const demo = `
module simple: % the paper's Fig. 1 example
input c : integer;
output y;
var a : integer in
loop
  await c;
  if a = ?c then a := 0; emit y;
  else a := a + 1;
  end if
end loop
end var
end module
`

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole driver; split from main so tests can execute it
// with captured output and compare runs across flag sets.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "fuzz" {
		return runFuzz(args[1:], stdout, stderr)
	}
	if len(args) > 0 && args[0] == "shard-worker" {
		return runShardWorker(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("polisc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	target := fs.String("target", "hc11", "cost profile: hc11 or r3k")
	order := fs.String("order", "default", "variable ordering: default, naive, inputs-first")
	emitC := fs.Bool("c", false, "print the generated C")
	emitAsm := fs.Bool("asm", false, "print the object-code listing")
	emitDot := fs.Bool("dot", false, "print the s-graph in Graphviz format")
	optCopies := fs.Bool("optimize-copies", false, "apply the write-before-read copy analysis")
	reduce := fs.Bool("reduce", false, "run the fixed-point s-graph reduction engine before codegen")
	outDir := fs.String("o", "", "write generated C sources into this directory")
	showParams := fs.Bool("params", false, "print the calibrated cost parameters and exit")
	jobs := fs.Int("j", 0, "synthesize up to N modules concurrently (0 = all CPUs)")
	cacheDir := fs.String("cache", "", "artifact cache directory (empty = in-memory only)")
	stats := fs.Bool("stats", false, "print the pipeline statistics report")
	profPath := fs.String("profile", "", "reorder TEST outcomes hot-path-first using this execution profile JSON (from cfsmsim -profile-out)")
	shards := fs.Int("shards", 0, "run N shard-worker processes sharing the -cache directory (0 = off; in-process parallelism is -j)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	src := demo
	if fs.NArg() > 0 {
		data, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return fail(stderr, err)
		}
		src = string(data)
	}

	var opt polis.Options
	var err error
	if opt.Target, err = vm.Target(*target); err != nil {
		return fail(stderr, err)
	}
	if opt.Ordering, err = sgraph.ParseOrdering(*order); err != nil {
		return fail(stderr, err)
	}
	opt.Codegen.OptimizeCopies = *optCopies
	opt.Reduce = *reduce
	if *profPath != "" {
		p, err := profile.Load(*profPath)
		if err != nil {
			return fail(stderr, err)
		}
		opt.Profile = p
	}

	if *showParams {
		params, err := estimate.Calibrate(opt.Target)
		if err != nil {
			return fail(stderr, err)
		}
		fmt.Fprint(stdout, params.Format())
		return 0
	}

	net, _, err := esterel.CompileProgram(src)
	if err != nil {
		return fail(stderr, err)
	}

	col := pipeline.NewCollector()
	var arts []*pipeline.Artifact
	var shardRep *shard.Report
	if *shards != 0 {
		sopt := shard.Options{
			Shards:   *shards,
			Pipeline: opt,
			CacheDir: *cacheDir,
		}
		// The workers need an on-disk shuffle layer; fall back to a
		// run-scoped temporary directory when -cache is not given.
		if sopt.CacheDir == "" {
			tmp, err := os.MkdirTemp("", "polisc-shard-*")
			if err != nil {
				return fail(stderr, err)
			}
			defer os.RemoveAll(tmp)
			sopt.CacheDir = tmp
		}
		exe, err := os.Executable()
		if err != nil {
			return fail(stderr, err)
		}
		shardRep, err = shard.RunProcs(context.Background(), net, sopt, []string{exe, "shard-worker"})
		if err != nil {
			return fail(stderr, err)
		}
		arts = shardRep.Artifacts
	} else {
		cache, err := pipeline.NewCache(*cacheDir)
		if err != nil {
			return fail(stderr, err)
		}
		arts, err = polis.SynthesizeNetwork(net, opt, pipeline.Config{
			Jobs:  *jobs,
			Cache: cache,
			Trace: col,
		})
		if err != nil {
			return fail(stderr, err)
		}
	}

	var sources []namedSource
	var totalCode int64
	for _, a := range arts {
		fmt.Fprint(stdout, a.Report(opt.Target))
		totalCode += int64(a.CodeSize)
		sources = append(sources, namedSource{a.Module + ".c", a.C})
		if *emitC {
			fmt.Fprintln(stdout, "\n----- generated C -----")
			fmt.Fprint(stdout, a.C)
		}
		if *emitAsm {
			fmt.Fprintln(stdout, "\n----- object code -----")
			fmt.Fprint(stdout, a.Listing)
		}
		if *emitDot {
			fmt.Fprintln(stdout, "\n----- s-graph -----")
			if a.SGraph != nil {
				fmt.Fprint(stdout, a.SGraph.Dot())
			} else {
				fmt.Fprintln(stdout, "(s-graph not available: artifact restored from the on-disk cache)")
			}
		}
		fmt.Fprintln(stdout)
	}
	rtosSrc, size, err := polis.GenerateRTOS(net, rtos.DefaultConfig(), opt.Target)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "system: %d module(s), %d bytes of task code, RTOS %d bytes ROM / %d bytes RAM\n",
		len(net.Machines), totalCode, size.CodeBytes, size.DataBytes)
	sources = append(sources,
		namedSource{"polis_rtos.h", codegen.RTOSHeader()},
		namedSource{"rtos.c", rtosSrc})
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return fail(stderr, err)
		}
		for _, sf := range sources {
			path := filepath.Join(*outDir, sf.name)
			if err := os.WriteFile(path, []byte(sf.text), 0o644); err != nil {
				return fail(stderr, err)
			}
			fmt.Fprintln(stdout, "wrote", path)
		}
	}
	if *stats {
		// Per-shard wall times vary run to run, so the shard summary
		// only prints here: without -stats the output stays
		// byte-identical across shard counts and -j.
		if shardRep != nil {
			fmt.Fprint(stdout, shardRep.Summary())
			fmt.Fprint(stdout, shardRep.Collector.Report())
		} else {
			fmt.Fprint(stdout, col.Report())
		}
	}
	return 0
}

// runShardWorker is the map side of process-mode sharding: it decodes
// one shard job from stdin, synthesizes the job's modules through the
// shared on-disk cache (the shuffle layer), and streams one NDJSON
// result per module on stdout. It is exec'd by `polisc -shards N`;
// see internal/shard for the protocol.
func runShardWorker(args []string, stdout, stderr io.Writer) int {
	if len(args) != 0 {
		return fail(stderr, fmt.Errorf("shard-worker takes no arguments (job comes on stdin)"))
	}
	if err := shard.Worker(os.Stdin, stdout); err != nil {
		return fail(stderr, fmt.Errorf("shard-worker: %w", err))
	}
	return 0
}

// runFuzz drives the co-simulation fuzz harness: a seeded campaign of
// randomized scenarios, or an exact replay when -config is given.
func runFuzz(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("polisc fuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 1, "first seed of the campaign (or the seed to replay)")
	runs := fs.Int("runs", 100, "number of consecutive seeds to run")
	cfgStr := fs.String("config", "", `fixed scenario "k=v,..." (empty: randomized shape per seed)`)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var cfg netfuzz.Config
	randomize := *cfgStr == ""
	if !randomize {
		var err error
		cfg, err = netfuzz.Parse(*cfgStr)
		if err != nil {
			return fail(stderr, err)
		}
	}
	res := netfuzz.Campaign(*seed, *runs, cfg, randomize, stdout)
	fmt.Fprintf(stdout, "fuzz: %d runs, %d strict comparisons, %d failures\n",
		res.Runs, res.Strict, len(res.Failures))
	if len(res.Failures) > 0 {
		return 1
	}
	return 0
}

type namedSource struct {
	name string
	text string
}

func fail(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "polisc:", err)
	return 1
}
