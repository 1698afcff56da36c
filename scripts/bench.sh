#!/bin/sh
# bench.sh — run the serving micro-benchmarks and emit the results as JSON
# in the repo root:
#
#   BENCH_query.json — query-path benches: prepared vs unprepared
#       estimation, batch execution, GROUP BY (batched vs per-group),
#       result-cache hit vs uncached execution, streamed vs materialized
#       GROUP BY rows/s, and the HTTP serve endpoint.
#   BENCH_spn.json   — SPN inference micro-benches: the compiled
#       evaluator kernel, single-request and batched.
#   BENCH_update.json — update-pipeline benches: apply throughput
#       (rows/s) of flush-per-write vs the coalescing default, and
#       reader p50/p99 latency idle vs while a writer streams mutations
#       (the flat-reader-latency claim of snapshot-isolated serving).
#   BENCH_wal.json   — durability benches: WAL append throughput per
#       fsync policy (sync/batched/off), log scan and end-to-end crash
#       recovery speed, and reader p50/p99 while drift-triggered
#       re-learning hot-swaps ensemble members under a write stream.
#   BENCH_serve.json — serving benches: concurrent reader qps and p50/p99
#       of prepared estimates on one handle, and the hot-reload blip —
#       reader p50/p99 while a background loop keeps swapping the model
#       through the snapshot-publication path.
#
#   BENCHTIME=500x ./scripts/bench.sh     # override iteration count
set -eu

cd "$(dirname "$0")/.."

benchtime="${BENCHTIME:-200x}"

# parse_bench turns `go test -bench` output on stdin into a JSON array.
parse_bench() {
    awk '
BEGIN { print "["; first = 1 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)
    iters = $2
    ns = ""
    bytes = ""
    allocs = ""
    nextra = 0
    for (i = 3; i < NF; i++) {
        unit = $(i + 1)
        if (unit == "ns/op") { ns = $i; i++ }
        else if (unit == "B/op") { bytes = $i; i++ }
        else if (unit == "allocs/op") { allocs = $i; i++ }
        else if (unit ~ /^[A-Za-z][A-Za-z0-9_\/-]*$/ && $i ~ /^[0-9.eE+-]+$/) {
            # custom b.ReportMetric units (rows/s, p50-ns, ...)
            ek[nextra] = unit; ev[nextra] = $i; nextra++; i++
        }
    }
    if (!first) printf ",\n"
    first = 0
    printf "  {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s", name, iters, (ns == "" ? "null" : ns)
    if (bytes != "") printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    for (e = 0; e < nextra; e++) {
        u = ek[e]
        gsub(/[^A-Za-z0-9]/, "_", u)
        printf ", \"%s\": %s", u, ev[e]
    }
    printf "}"
}
END { print "\n]" }
'
}

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench 'Prepared|Unprepared|GroupByBatched|ResultCache|GroupStream|ServeEstimate' -benchmem \
    -benchtime "$benchtime" . ./cmd/deepdb | tee "$tmp"
parse_bench < "$tmp" > BENCH_query.json
echo "wrote BENCH_query.json"

go test -run '^$' -bench 'SPNEval' -benchmem \
    -benchtime "$benchtime" ./internal/spn | tee "$tmp"
parse_bench < "$tmp" > BENCH_spn.json
echo "wrote BENCH_spn.json"

# The reader-latency percentiles need enough iterations to be meaningful;
# keep at least 2000 unless the caller explicitly asked for more.
update_benchtime="$benchtime"
case "$update_benchtime" in
*x)
    if [ "${update_benchtime%x}" -lt 2000 ] 2>/dev/null; then
        update_benchtime=2000x
    fi
    ;;
esac
go test -run '^$' -bench 'UpdateApply|ReaderLatency' -benchmem \
    -benchtime "$update_benchtime" . | tee "$tmp"
parse_bench < "$tmp" > BENCH_update.json
echo "wrote BENCH_update.json"

# RelearnHotSwapReader iterations are observed hot-swaps (readers sample
# continuously until b.N swaps complete), so 50 already yield tens of
# thousands of latency samples — and its writer grows the tables without
# bound, so each further swap re-learns over more rows: 200 swaps do not
# fit its two-minute deadline. The WAL section therefore runs a fixed 50
# iterations, not BENCHTIME.
go test -run '^$' -bench 'WALAppend|WALScan|WALRecovery|RelearnHotSwapReader' -benchmem \
    -benchtime 50x . | tee "$tmp"
parse_bench < "$tmp" > BENCH_wal.json
echo "wrote BENCH_wal.json"

# Serving percentiles need the same sample floor as the update benches.
go test -run '^$' -bench '^Benchmark(ServeQuery|HotReloadReader)$' -benchmem \
    -benchtime "$update_benchtime" . | tee "$tmp"
parse_bench < "$tmp" > BENCH_serve.json
echo "wrote BENCH_serve.json"
