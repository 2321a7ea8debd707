#!/bin/sh
# CI gate: formatting (gofmt lists no file, in the module or, as a
# subdirectory, in perfbench/), vet (also of the pipeline package
# for windows, so the os-based disk-cache read that non-unix builds
# compile stays checked), build, the full test suite, the race detector (the
# pipeline runs per-CFSM synthesis on concurrent workers), the bdd
# ownership and use-after-Release checks enabled under the bdddebug
# build tag (over the kernel, the two packages that release managers
# and the two that sift reactive functions, where the per-swap sift-cost
# audit also checks that the unique tables hold only live nodes), a
# native fuzz run each of the disk-cache entry decoder, the polisd
# wire decoder, the Esterel program parser and compiler and the
# profile reader,
# bounded by an exec count rather than a time budget (a
# stalled fuzz coordinator ran only a few hundred execs in 20 s and
# still passed) and by a 300 s timeout that fails such a stall loudly,
# a bounded
# co-simulation fuzz smoke (fixed seeds, so failures are replayable
# with the printed `polisc fuzz -seed ... -config ...` line) run both
# with and without the s-graph reduction engine, with same-cycle
# stimulus storms against the batched delivery queue, and with
# profile-guided specialization (every run captures a behavioral
# profile and re-checks the hot-path-reordered object code against the
# reference interpreter), a polisd service
# end-to-end smoke under the race detector (ephemeral port, warm-cache
# second pass, /stats, SIGTERM drain), a multi-process sharded
# synthesis smoke (two shard-worker processes sharing one disk cache
# as the shuffle layer, warm second pass, output byte-identical to the
# unsharded run), an sgestimate smoke over both designs and targets, a
# cfsmsim smoke over both designs and timing modes with a profile
# round trip, a check that cfsmsim, rtosgen and sgestimate reject an
# unknown mode, policy or target by listing the accepted names, a run
# of each example checked for its result line, a
# build, vet and test of the perfbench module (its own
# go.mod, compiled against this tree's internal APIs), and a
# single-iteration benchmark smoke so the harness can't bit-rot.
set -eux

unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt -l lists unformatted files: $unformatted" >&2
    exit 1
fi
go vet ./...
GOOS=windows go vet ./internal/pipeline/
go build ./...
go test ./...
go test -race ./...
# The deadline and flight tests of polisd, repeated: they must not
# depend on how fast synthesis is.
go test -race -count=20 -run 'TestServerTypedRejections|TestServerSingleflight' ./internal/polisd/
# The back end's reused scratch must stay out of every artifact,
# however the workers interleave.
go test -race -count=20 -run TestArtifactsKeepNoScratch ./internal/pipeline/
# VMExact islands build their programs concurrently through the back
# end's pooled scratch and keep them live for the whole run.
go test -race -count=20 -run 'TestPartitionParallelMatchesSerial|TestPartitionRandomizedIdentity' ./internal/sim/
go test -tags bdddebug ./internal/bdd/ ./internal/sgraph/ ./internal/pipeline/ ./internal/cfsm/ ./internal/mvar/
timeout 300 go test -run '^$' -fuzz FuzzDecodeEntry -fuzztime 100000x ./internal/pipeline
timeout 300 go test -run '^$' -fuzz FuzzDecodeNetwork -fuzztime 100000x ./internal/polisd
timeout 300 go test -run '^$' -fuzz FuzzParseProgram -fuzztime 100000x ./internal/esterel
timeout 300 go test -run '^$' -fuzz FuzzCompileProgram -fuzztime 100000x ./internal/esterel
timeout 300 go test -run '^$' -fuzz FuzzReadJSON -fuzztime 100000x ./internal/profile
NETFUZZ_RUNS=800 go test -race -run TestFuzzCampaignRandom ./internal/netfuzz/
NETFUZZ_REDUCE_RUNS=200 go test -race -run TestFuzzCampaignReduce ./internal/netfuzz/
NETFUZZ_STORM_RUNS=200 go test -race -run TestFuzzCampaignStorm ./internal/netfuzz/
NETFUZZ_SPEC_RUNS=200 go test -race -run TestFuzzCampaignSpecialize ./internal/netfuzz/

# polisd e2e smoke: race-instrumented daemon on an ephemeral port.
# The same single-client batch driven twice must hit the warm cache on
# the second pass (4 misses + 4 mem hits = 50.0%), and its repeated body
# must be served from the request memo; a concurrent burst
# with edits must serve every request, /stats and /healthz must
# answer, and SIGTERM must drain cleanly (exit 0, "drained" printed).
tmp=$(mktemp -d)
go build -race -o "$tmp/polisd" ./cmd/polisd
"$tmp/polisd" -addr 127.0.0.1:0 -workers 2 >"$tmp/out" 2>"$tmp/err" &
pid=$!
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$tmp"' EXIT
for _ in $(seq 1 100); do
    grep -q '^listening on ' "$tmp/out" && break
    sleep 0.1
done
url=$(sed -n 's/^listening on //p' "$tmp/out")
"$tmp/polisd" loadgen -url "$url" -n 2 -c 1 -networks 1 -modules 4 | tee "$tmp/load1"
grep -q 'hit ratio 50.0%' "$tmp/load1"
curl -fsS "$url/stats" | grep -q '"request_memo":{"hits":[1-9]'
"$tmp/polisd" loadgen -url "$url" -n 200 -c 50 -networks 4 -modules 2 -edit-rate 0.1 -seed 7
curl -fsS "$url/stats" | grep -q '"requests"'
curl -fsS "$url/healthz" | grep -q ok
kill -TERM "$pid"
wait "$pid"
grep -q '^drained$' "$tmp/out"
trap - EXIT
rm -rf "$tmp"

# Sharded map-reduce smoke: two shard-worker OS processes share one
# on-disk cache directory as the shuffle layer. The cold pass misses
# for all 3 modules, the warm pass is served entirely from the shared
# disk cache, and the non-stats output is byte-identical to the
# unsharded run.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/polisc" ./cmd/polisc
cat >"$tmp/net.strl" <<'EOF'
module divider:
input tick;
output half;
var odd : integer in
loop
  await tick;
  if odd = 0 then odd := 1;
  else odd := 0; emit half;
  end if
end loop
end var
end module

module toggler:
input half;
output led : integer;
var on : integer in
loop
  await half;
  if on = 0 then on := 1; else on := 0; end if
  emit led(on);
end loop
end var
end module

module monitor:
input led : integer;
output alarm;
var seen : integer in
loop
  await led;
  if seen = 3 then seen := 0; emit alarm;
  else seen := seen + 1;
  end if
end loop
end var
end module
EOF
"$tmp/polisc" "$tmp/net.strl" >"$tmp/plain"
"$tmp/polisc" -shards 2 -cache "$tmp/cache" -stats "$tmp/net.strl" | tee "$tmp/cold"
grep -q 'shard: 2 shard(s) (process), 3 module(s), miss 3 | mem 0 | disk 0 | dedup 0' "$tmp/cold"
"$tmp/polisc" -shards 2 -cache "$tmp/cache" -stats "$tmp/net.strl" | tee "$tmp/warm"
grep -q 'shard: 2 shard(s) (process), 3 module(s), miss 0 | mem 0 | disk 3 | dedup 0' "$tmp/warm"
"$tmp/polisc" -shards 2 -cache "$tmp/cache" "$tmp/net.strl" >"$tmp/sharded"
diff "$tmp/plain" "$tmp/sharded"
trap - EXIT
rm -rf "$tmp"

# sgestimate smoke: each design on each target exits 0 and prints its
# two header lines plus one row per module (9 dashboard, 6 shock).
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/sgestimate" ./cmd/sgestimate
for design in dashboard:9 shock:6; do
    for target in hc11 r3k; do
        "$tmp/sgestimate" -design "${design%:*}" -target "$target" >"$tmp/out"
        grep -q "target $target\$" "$tmp/out"
        test "$(wc -l <"$tmp/out")" -eq $((${design#*:} + 2))
    done
done
trap - EXIT
rm -rf "$tmp"

# cfsmsim smoke: each design in each timing mode exits 0 and prints its
# task statistics, one row per module (9 dashboard, 6 shock); a
# captured dashboard profile feeds a rerun that must report it
# specialized.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/cfsmsim" ./cmd/cfsmsim
for design in dashboard:9 shock:6; do
    for mode in vm behavioral; do
        "$tmp/cfsmsim" -design "${design%:*}" -mode "$mode" >"$tmp/out"
        grep -q '^task statistics:$' "$tmp/out"
        test "$(sed -n '/^task statistics:$/,$p' "$tmp/out" | grep -c ' executions ')" -eq "${design#*:}"
    done
done
"$tmp/cfsmsim" -design dashboard -profile-out "$tmp/prof.json" >/dev/null
"$tmp/cfsmsim" -design dashboard -profile "$tmp/prof.json" >"$tmp/out"
grep -q '^specialize: TEST outcomes reordered' "$tmp/out"
trap - EXIT
rm -rf "$tmp"

# An unknown name exits non-zero and lists the accepted names.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/" ./cmd/cfsmsim ./cmd/rtosgen ./cmd/sgestimate
if "$tmp/cfsmsim" -mode bogus >/dev/null 2>"$tmp/err"; then exit 1; fi
grep -q 'accepted: behavioral, vm' "$tmp/err"
if "$tmp/rtosgen" -policy bogus >/dev/null 2>"$tmp/err"; then exit 1; fi
grep -q 'accepted: rr, prio' "$tmp/err"
if "$tmp/sgestimate" -target z80 >/dev/null 2>"$tmp/err"; then exit 1; fi
grep -q 'accepted: hc11, r3k' "$tmp/err"
trap - EXIT
rm -rf "$tmp"

# Example smoke: each example exits 0 and prints its result line.
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
for ex in trafficlight quickstart dashboard shockabsorber; do
    go run "./examples/$ex" >"$tmp/$ex"
done
grep -qF 'verified: phase stays in [0,5) over 5 reachable states' "$tmp/trafficlight"
grep -qF 'reaction 3: 123 cycles, emitted y: true' "$tmp/quickstart"
grep -qF 'low fuel warnings: 1' "$tmp/dashboard"
grep -qF 'task 5 worst-case response: 1519 cycles' "$tmp/shockabsorber"
trap - EXIT
rm -rf "$tmp"

(cd perfbench && go vet ./... && go test ./...)

./bench.sh

# Bounded perf-regression smoke: short-benchtime timings for every
# suite (bdd synthesis, sim throughput, pooled synthesis at scale,
# polisd request overhead)
# compared to their last recorded -full runs, failing only on
# order-of-magnitude blowups (the generous threshold absorbs
# shared-runner noise; the real measurement lives in bench.sh -full /
# -compare).
if [ -f BENCH_bdd.json ] || [ -f BENCH_sim.json ] || [ -f BENCH_synth.json ] || [ -f BENCH_polisd.json ]; then
    BENCHTIME=10ms ./bench.sh -compare -fail-over 400
fi
