#!/bin/sh
# Benchmark harness for the BDD kernel / synthesis pipeline and the
# co-simulation engine. Each suite keeps its own dated history file:
#
#   suite "bdd"   ->  BENCH_bdd.json   (synthesis, BDD kernel, cache key)
#   suite "sim"   ->  BENCH_sim.json   (co-simulation throughput)
#   suite "synth" ->  BENCH_synth.json (pooled synthesis at scale)
#   suite "polisd" -> BENCH_polisd.json (polisd request overhead)
#
# BENCH_SUITES overrides the suite list (e.g. BENCH_SUITES=synth).
#
#   ./bench.sh           smoke mode: run the key benchmarks once
#                        (-benchtime=1x) so CI catches bit-rot cheaply
#   ./bench.sh -full     measured mode: real benchtime; the results are
#                        parsed (ns/op, B/op, allocs/op and custom
#                        metrics such as peak-nodes or reactions/s) and
#                        APPENDED to the suite's history file as a new
#                        dated run, preserving prior runs
#   ./bench.sh -compare  measured mode, read-only: run the benchmarks
#                        and print a delta table against the most
#                        recent run recorded per suite, without
#                        touching the files (no benchstat dependency)
#   ./bench.sh -compare -fail-over <pct>
#                        as -compare, but additionally exit nonzero if
#                        any benchmark regressed on ns/op by more than
#                        <pct> percent versus the recorded run — an
#                        opt-in perf gate for CI (pick a generous
#                        threshold; shared runners are noisy)
#
# History files are arrays of run objects
#   [{"date":"YYYY-MM-DD","label":"<commit> nproc=<cpus>","benchmarks":[{...},...]}]
# with one flat benchmark object per `go test -bench` line, so
# downstream tooling can diff runs without a Go dependency. Files from
# before the run-history format (a bare array of benchmark objects)
# are absorbed as a run labelled "legacy" on the next -full.
set -eu

SUITES="${BENCH_SUITES:-bdd sim synth polisd}"

# run_benches SUITE honors an optional BENCHTIME override (any
# -benchtime value, e.g. "10ms" or "1x") so CI can bound a run's cost.
run_benches() {
    case "$1" in
    bdd)
        go test -run '^$' -bench 'BenchmarkTable2Orderings|BenchmarkSynthesizeNetwork|BenchmarkAblationReduce|BenchmarkCharFn' \
            -benchmem ${BENCHTIME:+-benchtime="$BENCHTIME"} .
        # Every kernel benchmark, BenchmarkSiftModules (ns/swap over a
        # fixed random network's reactive functions) included.
        go test -run '^$' -bench . -benchmem ${BENCHTIME:+-benchtime="$BENCHTIME"} ./internal/bdd/
        # The cache key, and the stages after the s-graph one by one
        # (BenchmarkBackend: reduce, routine, assemble, emit-c,
        # analyze-cycles, listing, code-size, estimate).
        go test -run '^$' -bench 'BenchmarkFingerprint|BenchmarkBackend' -benchmem ${BENCHTIME:+-benchtime="$BENCHTIME"} ./internal/pipeline/
        ;;
    sim)
        go test -run '^$' -bench 'BenchmarkSimThroughput|BenchmarkSimSpecialization' \
            -benchmem ${BENCHTIME:+-benchtime="$BENCHTIME"} ./internal/sim/
        # The VM layer alone: ns and cycles per reaction over the
        # paper's designs.
        go test -run '^$' -bench 'BenchmarkMachineRun' \
            -benchmem ${BENCHTIME:+-benchtime="$BENCHTIME"} ./internal/vm/
        ;;
    synth)
        # The 1000-module cases take tens of seconds per iteration on
        # the 1-CPU CI box; -benchtime=1x (the smoke default) keeps
        # them bounded.
        go test -run '^$' -bench 'BenchmarkRunModules' -timeout 30m \
            -benchmem ${BENCHTIME:+-benchtime="$BENCHTIME"} ./internal/pipeline/
        ;;
    polisd)
        # One POST /synthesize through the handler, no socket, over
        # warm modules: a repeated body and a freshly edited one.
        go test -run '^$' -bench 'BenchmarkServeRequest' \
            -benchmem ${BENCHTIME:+-benchtime="$BENCHTIME"} ./internal/polisd/
        ;;
    esac
}

suite_out() {
    echo "BENCH_$1.json"
}

# parse_benches: stdin is `go test -bench` output; stdout is one JSON
# benchmark object per line (no surrounding brackets). Lines look like
#   BenchmarkName-8   123   4567 ns/op   89 B/op   1 allocs/op   42.0 peak-nodes
# Metric tokens come in (value, unit) pairs after the iteration count;
# units become object keys ("/" replaced to keep the keys
# shell-friendly downstream).
parse_benches() {
    awk '
/^Benchmark/ {
    name = $1; sub(/-[0-9]+$/, "", name)
    line = sprintf("{\"name\":\"%s\",\"iters\":%s", name, $2)
    for (i = 3; i < NF; i += 2) {
        unit = $(i + 1)
        gsub(/\//, "_per_", unit)
        gsub(/%/, "pct", unit)
        line = line sprintf(",\"%s\":%s", unit, $i)
    }
    print line "}"
}'
}

# latest_run OUTFILE: print the benchmark-object lines of the newest
# run (or of the whole file when it predates the run-history format).
latest_run() {
    [ -f "$1" ] || return 0
    if grep -q '"benchmarks"' "$1"; then
        awk '
/"benchmarks"/ { n++; delete b; k = 0; next }
/"name"/       { s = $0; sub(/^[ \t]*/, "", s); sub(/,[ \t]*$/, "", s); b[k++] = s }
END            { for (i = 0; i < k; i++) print b[i] }' "$1"
    else
        awk '
/"name"/ { s = $0; sub(/^[ \t]*/, "", s); sub(/,[ \t]*$/, "", s); print s }' "$1"
    fi
}

# append_run OUTFILE NEWFILE: rewrite OUTFILE with every prior run
# followed by a new dated run holding NEWFILE's benchmark lines.
append_run() {
    out=$1
    new=$2
    date=$(date +%Y-%m-%d)
    # The label names the tree (a "-dirty" suffix marks uncommitted
    # changes) and the CPU count the numbers were measured with.
    label="$(git describe --always --dirty 2>/dev/null || echo "worktree") nproc=$(nproc)"
    prev=$(mktemp)
    if [ -f "$out" ] && grep -q '"benchmarks"' "$out"; then
        # Drop the final "]" of the runs array; keep everything else.
        awk 'NR > 1 { print last } { last = $0 } END { if (last != "]") print last }' "$out" |
            sed '$ s/}[ \t]*$/},/' >"$prev"
    elif [ -f "$out" ] && grep -q '"name"' "$out"; then
        # Legacy flat-array file: absorb it as one "legacy" run.
        {
            echo "["
            echo " {\"date\":\"unknown\",\"label\":\"legacy\",\"benchmarks\":["
            latest_run "$out" | sed 's/^/  /' | sed '$ ! s/$/,/'
            echo " ]},"
        } >"$prev"
    else
        echo "[" >"$prev"
    fi
    {
        cat "$prev"
        echo " {\"date\":\"$date\",\"label\":\"$label\",\"benchmarks\":["
        sed 's/^/  /' "$new" | sed '$ ! s/$/,/'
        echo " ]}"
        echo "]"
    } >"$out"
    rm -f "$prev"
    echo "wrote $out ($(grep -c '"name"' "$new") benchmark(s), $(grep -c '"benchmarks"' "$out") run(s))"
}

# compare OLDFILE NEWFILE: per-benchmark delta table on ns/op, B/op and
# allocs/op. Both inputs hold one benchmark object per line.
compare_runs() {
    awk '
function val(line, key,   m) {
    if (match(line, "\"" key "\":[0-9.]+")) {
        m = substr(line, RSTART, RLENGTH)
        sub(/^[^:]*:/, "", m)
        return m
    }
    return ""
}
function nm(line,   m) {
    match(line, /"name":"[^"]*"/)
    m = substr(line, RSTART + 8, RLENGTH - 9)
    return m
}
function delta(o, n) {
    if (o == "" || n == "" || o + 0 == 0) return "      -"
    return sprintf("%+6.1f%%", 100 * (n - o) / o)
}
NR == FNR { old[nm($0)] = $0; next }
{
    name = nm($0); o = old[name]
    printf "%-40s %12s %12s %8s %10s %10s %8s\n", name,
        val(o, "ns_per_op"), val($0, "ns_per_op"), delta(val(o, "ns_per_op"), val($0, "ns_per_op")),
        val(o, "B_per_op"), val($0, "B_per_op"), delta(val(o, "allocs_per_op"), val($0, "allocs_per_op"))
    seen[name] = 1
}
END {
    for (n in old) if (!(n in seen)) printf "%-40s %12s %12s\n", n, val(old[n], "ns_per_op"), "(gone)"
}' "$1" "$2"
}

# check_regressions OLDFILE NEWFILE PCT: exit 1 when any benchmark's
# ns/op regressed beyond PCT percent against the recorded run. New
# benchmarks (no old entry) never fail the gate.
check_regressions() {
    awk -v limit="$3" '
function val(line, key,   m) {
    if (match(line, "\"" key "\":[0-9.]+")) {
        m = substr(line, RSTART, RLENGTH)
        sub(/^[^:]*:/, "", m)
        return m
    }
    return ""
}
function nm(line,   m) {
    match(line, /"name":"[^"]*"/)
    return substr(line, RSTART + 8, RLENGTH - 9)
}
NR == FNR { old[nm($0)] = val($0, "ns_per_op"); next }
{
    name = nm($0); o = old[name]; n = val($0, "ns_per_op")
    if (o != "" && n != "" && o + 0 > 0) {
        pct = 100 * (n - o) / o
        if (pct > limit + 0) {
            printf "REGRESSION %s: %.0f -> %.0f ns/op (%+.1f%% > %s%%)\n", name, o, n, pct, limit
            bad = 1
        }
    }
}
END { exit bad }' "$1" "$2" || {
        echo "bench.sh: ns/op regression beyond ${3}% threshold" >&2
        return 1
    }
    echo "no ns/op regression beyond ${3}%"
}

case "${1:-}" in
"")
    for suite in $SUITES; do
        BENCHTIME=1x run_benches "$suite"
    done
    ;;
-full)
    for suite in $SUITES; do
        OUT=$(suite_out "$suite")
        TMP=$(mktemp) NEW=$(mktemp)
        run_benches "$suite" | tee "$TMP"
        parse_benches <"$TMP" >"$NEW"
        append_run "$OUT" "$NEW"
        rm -f "$TMP" "$NEW"
    done
    ;;
-compare)
    FAILOVER=
    if [ "${2:-}" = "-fail-over" ]; then
        FAILOVER=${3:?"-fail-over needs a percentage"}
    fi
    STATUS=0
    for suite in $SUITES; do
        OUT=$(suite_out "$suite")
        TMP=$(mktemp) NEW=$(mktemp) OLD=$(mktemp)
        latest_run "$OUT" >"$OLD"
        if [ ! -s "$OLD" ]; then
            echo "no prior run in $OUT; run ./bench.sh -full first (skipping $suite)" >&2
            rm -f "$TMP" "$NEW" "$OLD"
            continue
        fi
        run_benches "$suite" | tee "$TMP"
        parse_benches <"$TMP" >"$NEW"
        echo
        printf "%-40s %12s %12s %8s %10s %10s %8s\n" "$suite benchmark" "old ns/op" "new ns/op" delta "old B/op" "new B/op" allocs
        compare_runs "$OLD" "$NEW"
        if [ -n "$FAILOVER" ]; then
            check_regressions "$OLD" "$NEW" "$FAILOVER" || STATUS=1
        fi
        rm -f "$TMP" "$NEW" "$OLD"
    done
    exit $STATUS
    ;;
*)
    echo "usage: ./bench.sh [-full|-compare]" >&2
    exit 2
    ;;
esac
