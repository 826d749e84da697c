#!/bin/sh
# benchsmoke.sh — benchmark-regression gate for CI.
#
# Runs the four benchmarks that cover the hot paths end to end — the
# batched thermal kernel (BenchmarkThermalStepBatch32), the batched
# sweep engine (BenchmarkSweepBatched/batch8), the sparse Krylov step
# on a 256-core generated grid (BenchmarkGridStepN256), and a whole
# timeshared control tick on that grid (BenchmarkGridTickN256, which
# catches a per-core loop falling back to a die-wide scan) — takes the
# min of three repetitions (min-of-N is robust against scheduler noise
# on shared runners; the min is the least-perturbed run), and fails if
# any regresses more than 25% against the checked-in
# BENCH_baseline.json.
#
# Usage: scripts/benchsmoke.sh            # gate against the baseline
#        scripts/benchsmoke.sh --update   # re-measure, rewrite baseline
#
# The baseline is wall-clock on a reference machine, so the 25% gate is
# deliberately loose: it catches algorithmic regressions (a lost SIMD
# dispatch, an allocation sneaking into the tick loop), not single-digit
# drift. After an intentional perf change, or when moving the reference
# machine, refresh with --update and commit the new numbers.
# The serving stack is gated separately: BenchmarkServeWarm (one warm
# cache-hit request over loopback HTTP) is compared against the
# serve_warm_request_ns recorded in BENCH_serve.json by
# cmd/thermald-bench, with a loose 3x bound — HTTP round-trips on a
# shared runner are noisier than kernel benches, and the gate only
# needs to catch the cache or the canonical-bytes path falling off the
# hit path entirely. Skipped when BENCH_serve.json is absent.
set -eu

cd "$(dirname "$0")/.."
base="BENCH_baseline.json"
serve="BENCH_serve.json"

# min_ns <bench regex> <benchtime>: min ns/op over 3 repetitions.
min_ns() {
    go test -run '^$' -bench "$1" -benchtime "$2" -count=3 . |
        awk '/ns\/op/ { if (min == "" || $3 + 0 < min + 0) min = $3 } END { print (min == "" ? "FAIL" : min) }'
}

field() {
    awk -v k="\"$1\"" -F '[:,]' '$1 ~ k { gsub(/[ \t]/, "", $2); print $2; exit }' "$base"
}

echo "building..." >&2
go build ./...

echo "BenchmarkThermalStepBatch32 (min of 3 x 200k iterations)..." >&2
batch32=$(min_ns 'BenchmarkThermalStepBatch32' 200000x)
echo "BenchmarkSweepBatched/batch8 (min of 3 x 1 iteration)..." >&2
sweep8=$(min_ns 'BenchmarkSweepBatched/batch8' 1x)
echo "BenchmarkGridStepN256 (min of 3 x 3k iterations)..." >&2
grid256=$(min_ns 'BenchmarkGridStepN256' 3000x)
echo "BenchmarkGridTickN256 (min of 3 x 3k iterations)..." >&2
tick256=$(min_ns 'BenchmarkGridTickN256' 3000x)

if [ "${1:-}" = "--update" ]; then
    cat >"$base" <<EOF
{
  "thermal_step_batch32_ns_per_op": ${batch32},
  "sweep_batched8_ns_per_op": ${sweep8},
  "grid_step_n256_ns_per_op": ${grid256},
  "grid_tick_n256_ns_per_op": ${tick256}
}
EOF
    echo "wrote ${base}:" >&2
    cat "$base"
    exit 0
fi

status=0
for row in \
    "BenchmarkThermalStepBatch32 ${batch32} $(field thermal_step_batch32_ns_per_op)" \
    "BenchmarkSweepBatched/batch8 ${sweep8} $(field sweep_batched8_ns_per_op)" \
    "BenchmarkGridStepN256 ${grid256} $(field grid_step_n256_ns_per_op)" \
    "BenchmarkGridTickN256 ${tick256} $(field grid_tick_n256_ns_per_op)"; do
    set -- $row
    if ! awk -v name="$1" -v got="$2" -v want="$3" 'BEGIN {
        ratio = got / want
        printf "%-30s %14.0f ns/op  baseline %14.0f  ratio %.2f\n", name, got, want, ratio
        exit (ratio > 1.25 ? 1 : 0)
    }'; then
        echo "FAIL: ${1} regressed more than 25% against ${base}" >&2
        status=1
    fi
done

if [ -f "$serve" ]; then
    echo "BenchmarkServeWarm (min of 3 x 2000 iterations)..." >&2
    servewarm=$(go test -run '^$' -bench '^BenchmarkServeWarm$' -benchtime 2000x -count=3 ./internal/serve/ |
        awk '/ns\/op/ { if (min == "" || $3 + 0 < min + 0) min = $3 } END { print (min == "" ? "FAIL" : min) }')
    servebase=$(awk -F '[:,]' '$1 ~ /"serve_warm_request_ns"/ { gsub(/[ \t]/, "", $2); print $2; exit }' "$serve")
    if ! awk -v got="$servewarm" -v want="$servebase" 'BEGIN {
        ratio = got / want
        printf "%-30s %14.0f ns/op  baseline %14.0f  ratio %.2f\n", "BenchmarkServeWarm", got, want, ratio
        exit (ratio > 3.0 ? 1 : 0)
    }'; then
        echo "FAIL: BenchmarkServeWarm more than 3x the serve_warm_request_ns recorded in ${serve}" >&2
        status=1
    fi
else
    echo "skipping serve gate: no ${serve}" >&2
fi
exit $status
