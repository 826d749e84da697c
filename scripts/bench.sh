#!/bin/sh
# bench.sh — benchmark the thermal step and the parallel sweep engine,
# emitting a machine-readable summary to BENCH_sweep.json.
#
# Usage: scripts/bench.sh [output.json]
#
# Measures:
#   - kernel_expm_ns_per_op: BenchmarkThermalStepExpm (one 28 us exact
#     ZOH step of the 55-node CMP4 RC network through the packed
#     propagator, constant power)
#   - kernel_expm_dirty_ns_per_op: BenchmarkThermalStepExpmDirty (same
#     with per-tick SetPower, the simulator's leakage-feedback pattern)
#   - kernel_batch_ns_per_lane: BenchmarkThermalStepBatch8 per-lane cost
#     (eight models stepped in lockstep through one shared propagator)
#   - batch_speedup: dirty exact step time / batched per-lane step time
#   - sweep_n{4,16,64,256}_step_ns: BenchmarkGridStepN* — one exact tick
#     on generated 2x2/4x4/8x8/16x16 grids (26/74/266/1034 thermal
#     nodes; dense packed below the 64-node crossover, sparse Krylov
#     above it)
#   - step_cost_exponent: least-squares slope of ln(step ns) against
#     ln(cores) over the four grid sizes — the sparse-solve scaling
#     claim (dense exact ZOH would fit ~2, per-nonzero cost fits < 2)
#   - sweep_n{4,16,64,256}_tick_ns: BenchmarkGridTickN* — one whole
#     timeshared control tick (throttling, rotation, migration, activity
#     fill, power, thermal step) on the same grids
#   - tick_cost_exponent: the same fit over the whole tick; per-core
#     loops are indexed, so it tracks step_cost_exponent rather than
#     the 2 of a per-core scan over the die
#   - sweep wall-clock of a quick reproduction, three ways: -workers 1
#     at GOMAXPROCS=1 (the true sequential baseline), -workers 0 at
#     GOMAXPROCS=1 (scheduler overhead with no extra CPUs), and
#     -workers 0 at GOMAXPROCS=NumCPU (the real parallel run)
#   - sweep_parallel_speedup_ncpu: sequential / NumCPU wall-clock, the
#     honest multi-core speedup; `workers` records NumCPU alongside so
#     the number can be judged against the machine it ran on
#   - previous_*: the prior run's headline numbers, carried forward so
#     the trajectory survives regeneration
#
# On a single-core machine all three sweep times are expected to match;
# the speedup fields are only meaningful with NumCPU > 1.
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_sweep.json}"
ncpu="$(getconf _NPROCESSORS_ONLN 2>/dev/null || nproc 2>/dev/null || echo 1)"

bench_ns() {
    # Fixed iteration count + min of 3 repetitions: robust on noisy VMs.
    go test -run '^$' -bench "^$1\$" -benchtime=200000x -count=3 . |
        awk '/ns\/op/ { if (min == "" || $3 < min) min = $3 } END { print (min == "" ? "null" : min) }'
}

# bench_ns_at <name> <iterations>: like bench_ns with a per-benchmark
# iteration count, for the big-grid steps where 200k iterations would
# take minutes each.
bench_ns_at() {
    go test -run '^$' -bench "^$1\$" -benchtime="$2"x -count=3 . |
        awk '/ns\/op/ { if (min == "" || $3 < min) min = $3 } END { print (min == "" ? "null" : min) }'
}

# fit_exponent <ns at 4> <ns at 16> <ns at 64> <ns at 256>: least-squares
# slope of ln(ns) over ln(cores), the effective power p in
# cost ~ cores^p.
fit_exponent() {
    awk -v a="$1" -v b="$2" -v c="$3" -v d="$4" 'BEGIN {
        n = 4
        x[1] = log(4);   y[1] = log(a)
        x[2] = log(16);  y[2] = log(b)
        x[3] = log(64);  y[3] = log(c)
        x[4] = log(256); y[4] = log(d)
        for (i = 1; i <= n; i++) { sx += x[i]; sy += y[i] }
        mx = sx / n; my = sy / n
        for (i = 1; i <= n; i++) { num += (x[i] - mx) * (y[i] - my); den += (x[i] - mx) ^ 2 }
        printf "%.3f", num / den
    }'
}

# sweep_seconds <workers> <gomaxprocs>
sweep_seconds() {
    start=$(date +%s.%N 2>/dev/null || date +%s)
    GOMAXPROCS="$2" go run ./cmd/sweep -quick -simtime 0.02 -workers "$1" >/dev/null
    end=$(date +%s.%N 2>/dev/null || date +%s)
    awk -v a="$start" -v b="$end" 'BEGIN { printf "%.2f", b - a }'
}

# prev_field <name>: pull a numeric field out of the existing summary so
# regeneration keeps the previous headline numbers for trajectory.
prev_field() {
    [ -f "$out" ] || { echo null; return; }
    awk -v k="\"$1\"" -F '[:,]' '$1 ~ k { gsub(/[ \t]/, "", $2); print ($2 == "" ? "null" : $2); found = 1; exit }
        END { if (!found) print "null" }' "$out"
}

# prev_or <name> <current>: prev_field, seeded from the current
# measurement when the field is absent — on the first run, or the first
# run after a metric is added, the trajectory starts at the current
# value instead of recording "previous_*: null".
prev_or() {
    v=$(prev_field "$1")
    [ "$v" = "null" ] && v="$2"
    echo "$v"
}

echo "building..." >&2
go build ./...

echo "kernel benchmarks (min of 3 x 200k iterations)..." >&2
expm_ns=$(bench_ns BenchmarkThermalStepExpm)
expm_dirty_ns=$(bench_ns BenchmarkThermalStepExpmDirty)
# BenchmarkThermalStepBatch8 steps eight lanes per op; per-lane cost is
# ns/op divided by the batch width.
batch8_ns=$(bench_ns BenchmarkThermalStepBatch8)
batch_lane_ns=$(awk -v a="$batch8_ns" 'BEGIN { printf "%.1f", a / 8 }')
batch_speedup=$(awk -v a="$expm_dirty_ns" -v b="$batch_lane_ns" 'BEGIN { printf "%.2f", (b > 0 ? a / b : 0) }')

echo "many-core grid step scaling (4/16/64/256 cores)..." >&2
n4_ns=$(bench_ns_at BenchmarkGridStepN4 200000)
n16_ns=$(bench_ns_at BenchmarkGridStepN16 20000)
n64_ns=$(bench_ns_at BenchmarkGridStepN64 10000)
n256_ns=$(bench_ns_at BenchmarkGridStepN256 3000)
step_exponent=$(fit_exponent "$n4_ns" "$n16_ns" "$n64_ns" "$n256_ns")

echo "many-core grid tick scaling (4/16/64/256 cores)..." >&2
t4_ns=$(bench_ns_at BenchmarkGridTickN4 200000)
t16_ns=$(bench_ns_at BenchmarkGridTickN16 20000)
t64_ns=$(bench_ns_at BenchmarkGridTickN64 10000)
t256_ns=$(bench_ns_at BenchmarkGridTickN256 3000)
tick_exponent=$(fit_exponent "$t4_ns" "$t16_ns" "$t64_ns" "$t256_ns")

# Warm the build cache and the binary link before timing: the first
# `go run` pays compile/link and cold page-cache costs that would
# otherwise inflate whichever run happens to go first (and with it the
# reported speedup).
go run ./cmd/sweep -list >/dev/null

echo "quick sweep, 1 worker at GOMAXPROCS=1..." >&2
seq_s=$(sweep_seconds 1 1)
echo "quick sweep, all workers at GOMAXPROCS=1..." >&2
par_s=$(sweep_seconds 0 1)
echo "quick sweep, all workers at GOMAXPROCS=${ncpu}..." >&2
par_ncpu_s=$(sweep_seconds 0 "$ncpu")

speedup=$(awk -v a="$seq_s" -v b="$par_s" 'BEGIN { printf "%.2f", (b > 0 ? a / b : 0) }')
speedup_ncpu=$(awk -v a="$seq_s" -v b="$par_ncpu_s" 'BEGIN { printf "%.2f", (b > 0 ? a / b : 0) }')

# Carry the prior run's headline numbers before overwriting the file,
# seeding any metric the existing summary predates from this run.
prev_batch_speedup=$(prev_or batch_speedup "$batch_speedup")
prev_batch_lane_ns=$(prev_or kernel_batch_ns_per_lane "$batch_lane_ns")
prev_speedup=$(prev_or sweep_parallel_speedup "$speedup")
prev_speedup_ncpu=$(prev_or sweep_parallel_speedup_ncpu "$speedup_ncpu")
prev_step_exponent=$(prev_or step_cost_exponent "$step_exponent")
prev_tick_exponent=$(prev_or tick_cost_exponent "$tick_exponent")

cat >"$out" <<EOF
{
  "gomaxprocs": ${ncpu},
  "workers": ${ncpu},
  "kernel_expm_ns_per_op": ${expm_ns},
  "kernel_expm_dirty_ns_per_op": ${expm_dirty_ns},
  "kernel_batch_ns_per_lane": ${batch_lane_ns},
  "batch_speedup": ${batch_speedup},
  "sweep_n4_step_ns": ${n4_ns},
  "sweep_n16_step_ns": ${n16_ns},
  "sweep_n64_step_ns": ${n64_ns},
  "sweep_n256_step_ns": ${n256_ns},
  "step_cost_exponent": ${step_exponent},
  "sweep_n4_tick_ns": ${t4_ns},
  "sweep_n16_tick_ns": ${t16_ns},
  "sweep_n64_tick_ns": ${t64_ns},
  "sweep_n256_tick_ns": ${t256_ns},
  "tick_cost_exponent": ${tick_exponent},
  "sweep_quick_sequential_s": ${seq_s},
  "sweep_quick_parallel_s": ${par_s},
  "sweep_quick_parallel_ncpu_s": ${par_ncpu_s},
  "sweep_parallel_speedup": ${speedup},
  "sweep_parallel_speedup_ncpu": ${speedup_ncpu},
  "previous_kernel_batch_ns_per_lane": ${prev_batch_lane_ns},
  "previous_batch_speedup": ${prev_batch_speedup},
  "previous_sweep_parallel_speedup": ${prev_speedup},
  "previous_sweep_parallel_speedup_ncpu": ${prev_speedup_ncpu},
  "previous_step_cost_exponent": ${prev_step_exponent},
  "previous_tick_cost_exponent": ${prev_tick_exponent}
}
EOF

echo "wrote ${out}:" >&2
cat "$out"
