#!/bin/sh
# CI gate: vet, build, the full test suite, the race detector (the
# pipeline runs per-CFSM synthesis on concurrent workers), the bdd
# ownership checks enabled under the bdddebug build tag, a bounded
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
# round trip, and a single-iteration benchmark smoke so the harness
# can't bit-rot.
set -eux

go vet ./...
go build ./...
go test ./...
go test -race ./...
go test -tags bdddebug ./internal/bdd/
NETFUZZ_RUNS=800 go test -race -run TestFuzzCampaignRandom ./internal/netfuzz/
NETFUZZ_REDUCE_RUNS=200 go test -race -run TestFuzzCampaignReduce ./internal/netfuzz/
NETFUZZ_STORM_RUNS=200 go test -race -run TestFuzzCampaignStorm ./internal/netfuzz/
NETFUZZ_SPEC_RUNS=200 go test -race -run TestFuzzCampaignSpecialize ./internal/netfuzz/

# polisd e2e smoke: race-instrumented daemon on an ephemeral port.
# The same single-client batch driven twice must hit the warm cache on
# the second pass (4 misses + 4 mem hits = 50.0%), a concurrent burst
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
"$tmp/polisc" -shards 2 -shard-procs -cache "$tmp/cache" -stats "$tmp/net.strl" | tee "$tmp/cold"
grep -q 'shard: 2 shard(s) (process), 3 module(s), miss 3 | mem 0 | disk 0 | dedup 0' "$tmp/cold"
"$tmp/polisc" -shards 2 -shard-procs -cache "$tmp/cache" -stats "$tmp/net.strl" | tee "$tmp/warm"
grep -q 'shard: 2 shard(s) (process), 3 module(s), miss 0 | mem 0 | disk 3 | dedup 0' "$tmp/warm"
"$tmp/polisc" -shards 2 -shard-procs -cache "$tmp/cache" "$tmp/net.strl" >"$tmp/sharded"
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
# captured dashboard profile feeds a specialized rerun.
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
"$tmp/cfsmsim" -design dashboard -profile "$tmp/prof.json" -specialize >/dev/null
trap - EXIT
rm -rf "$tmp"

./bench.sh

# Bounded perf-regression smoke: short-benchtime timings for every
# suite (bdd synthesis, sim throughput, sharded synthesis at scale)
# compared to their last recorded -full runs, failing only on
# order-of-magnitude blowups (the generous threshold absorbs
# shared-runner noise; the real measurement lives in bench.sh -full /
# -compare).
if [ -f BENCH_bdd.json ] || [ -f BENCH_sim.json ] || [ -f BENCH_synth.json ]; then
    BENCHTIME=10ms ./bench.sh -compare -fail-over 400
fi
