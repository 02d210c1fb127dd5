#!/bin/sh
# scripts/bench.sh — perf baselines for the deterministic parallel engine and
# the ML training engine.
#
# Runs the serial-vs-parallel benchmarks (plus the pool's per-task dispatch
# overhead, per-index vs chunked) and emits BENCH_parallel.json with the
# median wall time of each arm and the parallel speedup, then runs the
# CART/forest training and Lasso/SVR solver benchmarks and emits BENCH_ml.json
# comparing the current engines against their recorded legacy baselines, then
# runs the deadline-aware scheduler benchmarks and emits BENCH_sched.json
# (campaign throughput in admitted jobs/sec plus per-dispatch decision
# latency), then runs the Cronos MHD step benchmarks and emits
# BENCH_cronos.json comparing the tiled SoA stencil against the frozen
# pre-tiling baseline, then runs the frequency-advisor serving benchmarks and
# emits BENCH_serve.json (campaign throughput in answered requests/sec plus
# per-query cache-miss latency), then runs the gpusim analytic hot-path
# benchmarks and emits BENCH_gpusim.json (per-evaluation and per-curve-point
# cost plus the sweep arms, stamped with the commit they were measured on), so
# perf regressions in any engine are diffable across commits:
#
#   ./scripts/bench.sh            # writes ./BENCH_parallel.json + ./BENCH_ml.json + ./BENCH_sched.json + ./BENCH_cronos.json + ./BENCH_serve.json + ./BENCH_gpusim.json
#   OUT=/tmp/b.json ML_OUT=/tmp/ml.json SCHED_OUT=/tmp/s.json CRONOS_OUT=/tmp/c.json SERVE_OUT=/tmp/v.json GPUSIM_OUT=/tmp/g.json ./scripts/bench.sh
#
# BENCHTIME controls averaging (default 3x; use 1x for a smoke run).
set -eu

cd "$(dirname "$0")/.."

OUT=${OUT:-BENCH_parallel.json}
ML_OUT=${ML_OUT:-BENCH_ml.json}
SCHED_OUT=${SCHED_OUT:-BENCH_sched.json}
CRONOS_OUT=${CRONOS_OUT:-BENCH_cronos.json}
SERVE_OUT=${SERVE_OUT:-BENCH_serve.json}
GPUSIM_OUT=${GPUSIM_OUT:-BENCH_gpusim.json}
BENCHTIME=${BENCHTIME:-3x}

# The serial-vs-parallel arms only mean something at the machine's real
# parallelism, so force GOMAXPROCS on every benchmark invocation below: a
# stray GOMAXPROCS=1 in the caller's environment used to silently serialize
# the "parallel" arms while the JSON still recorded the inherited value as if
# the arm had run at full width. Override with BENCH_GOMAXPROCS when pinning
# the runner on purpose.
BENCH_GOMAXPROCS=${BENCH_GOMAXPROCS:-$(nproc)}
export BENCH_GOMAXPROCS

# median is shared by the awk reports below: the middle of a space-separated
# list of numbers (the mean of the two middle values for an even count).
AWK_MEDIAN='
function median(list,    n, a, i, j, t) {
    n = split(list, a, " ")
    for (i = 2; i <= n; i++) {
        t = a[i] + 0
        for (j = i - 1; j >= 1 && a[j] + 0 > t; j--) a[j + 1] = a[j]
        a[j + 1] = t
    }
    return (n % 2) ? a[(n + 1) / 2] : (a[n / 2] + a[n / 2 + 1]) / 2
}'

# The sweep/kfold arms are millisecond-scale and their serial-vs-parallel
# margin is a few percent on two cores, so one averaged run is not enough:
# back-to-back runs of the same tree have disagreed on which arm was faster.
# Each arm runs 5 times at SWEEP_BENCHTIME iterations and the JSON records the
# median.
SWEEP_BENCHTIME=${SWEEP_BENCHTIME:-20x}
raw=$(GOMAXPROCS="$BENCH_GOMAXPROCS" go test -bench 'SweepSerialVsParallel|KFoldParallel' -benchtime "$SWEEP_BENCHTIME" -count 5 -run '^$' .)
echo "$raw"

# Per-task dispatch overhead of the pool itself on 64Ki trivial tasks at two
# workers: ForEach (grain 1, one claim per task) vs ForEachChunked (automatic
# grain). Also a median over 5 runs. baseline_commit is the commit
# the measured tree was built on: diff this file against its version at that
# commit for the before/after numbers.
dispraw=$(GOMAXPROCS="$BENCH_GOMAXPROCS" go test -bench 'Dispatch' -benchtime "$BENCHTIME" -count 5 -run '^$' ./internal/parallel)
echo "$dispraw"

{ echo "$raw"; echo "$dispraw"; } | awk -v out="$OUT" -v commit="$(git rev-parse --short HEAD)" "$AWK_MEDIAN"'
/^BenchmarkSweepSerialVsParallel\/serial/   { sweep_s = sweep_s " " $3 }
/^BenchmarkSweepSerialVsParallel\/parallel/ { sweep_p = sweep_p " " $3 }
/^BenchmarkKFoldParallel\/serial/           { kfold_s = kfold_s " " $3 }
/^BenchmarkKFoldParallel\/parallel/         { kfold_p = kfold_p " " $3 }
/^BenchmarkDispatch\/foreach-chunked/ {
    for (i = 1; i < NF; i++) if ($(i+1) == "ns/task") chunk_ns = chunk_ns " " $i
    next
}
/^BenchmarkDispatch\/foreach/ {
    for (i = 1; i < NF; i++) if ($(i+1) == "ns/task") each_ns = each_ns " " $i
}
/^cpu:/ { $1 = ""; sub(/^ /, ""); cpu = $0 }
END {
    if (sweep_s == "" || sweep_p == "" || kfold_s == "" || kfold_p == "" || each_ns == "" || chunk_ns == "") {
        print "bench.sh: missing benchmark rows in go test output" > "/dev/stderr"
        exit 1
    }
    sweep_s = median(sweep_s); sweep_p = median(sweep_p)
    kfold_s = median(kfold_s); kfold_p = median(kfold_p)
    each_ns = median(each_ns); chunk_ns = median(chunk_ns)
    printf "{\n" > out
    printf "  \"cpu\": \"%s\",\n", cpu >> out
    printf "  \"gomaxprocs\": %d,\n", ENVIRON["BENCH_GOMAXPROCS"] >> out
    printf "  \"baseline_commit\": \"%s\",\n", commit >> out
    printf "  \"sweep\": {\"serial_ns_op\": %d, \"parallel_ns_op\": %d, \"speedup\": %.3f},\n", sweep_s, sweep_p, sweep_s / sweep_p >> out
    printf "  \"kfold\": {\"serial_ns_op\": %d, \"parallel_ns_op\": %d, \"speedup\": %.3f},\n", kfold_s, kfold_p, kfold_s / kfold_p >> out
    printf "  \"dispatch\": {\"foreach_ns_task\": %.4g, \"chunked_ns_task\": %.4g, \"chunked_vs_foreach\": %.3f}\n", \
        each_ns, chunk_ns, each_ns / chunk_ns >> out
    printf "}\n" >> out
}'

echo "wrote $OUT"

# ML training engine: tree fit, the acceptance-gate forest fit (n=1000, d=16,
# 100 trees), the dataset-shaped forest fit (40 inputs x 25 clocks, three
# discrete input features plus the clock column, 100 trees; no legacy
# baseline), block prediction, and the Lasso/SVR solver fits on their bench
# shapes. The legacy_* fields below were measured once from the pre-refactor
# engines — per-node reflection sort.Slice for the trees, residual-update
# coordinate descent for the Lasso, the [][]float64-kernel eager-sweep dual
# solver for the SVR — at benchtime 3x on the reference runner (Intel Xeon @
# 2.10GHz), and stay fixed so every rerun reports the speedup of the current
# engines against those baselines.
mlraw=$(go test -bench 'TreeFit|ForestFitLarge|ForestFitTies|ForestPredictBatch|LassoFit|SVRFit' -benchmem -benchtime "$BENCHTIME" -run '^$' ./internal/ml)
echo "$mlraw"

echo "$mlraw" | awk -v out="$ML_OUT" '
/^BenchmarkTreeFit[-\t ]/            { tree_ns = $3; tree_allocs = $7 }
/^BenchmarkForestFitLarge[-\t ]/     { forest_ns = $3; forest_allocs = $7 }
/^BenchmarkForestFitTies[-\t ]/      { ties_ns = $3; ties_allocs = $7 }
/^BenchmarkForestPredictBatch[-\t ]/ { batch_ns = $3 }
/^BenchmarkLassoFit[-\t ]/           { lasso_ns = $3 }
/^BenchmarkLassoFitWide[-\t ]/       { lassow_ns = $3 }
/^BenchmarkSVRFit[-\t ]/             { svr_ns = $3 }
/^BenchmarkSVRFitLarge[-\t ]/        { svrl_ns = $3 }
/^cpu:/ { $1 = ""; sub(/^ /, ""); cpu = $0 }
END {
    if (tree_ns == "" || forest_ns == "" || ties_ns == "" || batch_ns == "" || lasso_ns == "" || lassow_ns == "" || svr_ns == "" || svrl_ns == "") {
        print "bench.sh: missing ML benchmark rows in go test output" > "/dev/stderr"
        exit 1
    }
    legacy_tree_ns = 16737282; legacy_tree_allocs = 48940
    legacy_forest_ns = 1545137444; legacy_forest_allocs = 2634758
    legacy_batch_ns = 21879380
    legacy_lasso_ns = 202811; legacy_lassow_ns = 659569
    legacy_svr_ns = 14887819; legacy_svrl_ns = 63604049
    printf "{\n" > out
    printf "  \"cpu\": \"%s\",\n", cpu >> out
    printf "  \"legacy_cpu\": \"Intel(R) Xeon(R) Processor @ 2.10GHz\",\n" >> out
    printf "  \"tree_fit\": {\"ns_op\": %s, \"allocs_op\": %s, \"legacy_ns_op\": %d, \"legacy_allocs_op\": %d, \"speedup\": %.3f, \"alloc_ratio\": %.3f},\n", \
        tree_ns, tree_allocs, legacy_tree_ns, legacy_tree_allocs, legacy_tree_ns / tree_ns, legacy_tree_allocs / tree_allocs >> out
    printf "  \"forest_fit_large\": {\"ns_op\": %s, \"allocs_op\": %s, \"legacy_ns_op\": %d, \"legacy_allocs_op\": %d, \"speedup\": %.3f, \"alloc_ratio\": %.3f},\n", \
        forest_ns, forest_allocs, legacy_forest_ns, legacy_forest_allocs, legacy_forest_ns / forest_ns, legacy_forest_allocs / forest_allocs >> out
    printf "  \"forest_fit_ties\": {\"ns_op\": %s, \"allocs_op\": %s},\n", ties_ns, ties_allocs >> out
    printf "  \"forest_predict_batch\": {\"ns_op\": %s, \"legacy_ns_op\": %d, \"speedup\": %.3f},\n", \
        batch_ns, legacy_batch_ns, legacy_batch_ns / batch_ns >> out
    printf "  \"lasso_fit\": {\"ns_op\": %s, \"legacy_ns_op\": %d, \"speedup\": %.3f},\n", \
        lasso_ns, legacy_lasso_ns, legacy_lasso_ns / lasso_ns >> out
    printf "  \"lasso_fit_wide\": {\"ns_op\": %s, \"legacy_ns_op\": %d, \"speedup\": %.3f},\n", \
        lassow_ns, legacy_lassow_ns, legacy_lassow_ns / lassow_ns >> out
    printf "  \"svr_fit\": {\"ns_op\": %s, \"legacy_ns_op\": %d, \"speedup\": %.3f},\n", \
        svr_ns, legacy_svr_ns, legacy_svr_ns / svr_ns >> out
    printf "  \"svr_fit_large\": {\"ns_op\": %s, \"legacy_ns_op\": %d, \"speedup\": %.3f}\n", \
        svrl_ns, legacy_svrl_ns, legacy_svrl_ns / svrl_ns >> out
    printf "}\n" >> out
}'

echo "wrote $ML_OUT"

# Deadline-aware scheduler: end-to-end campaign throughput (admitted jobs per
# second of wall time over a 96-job stream on a 4-device cluster) and the
# per-dispatch frequency-decision latency.
schedraw=$(go test -bench 'ScheduleStream|Decide' -benchtime "$BENCHTIME" -run '^$' ./internal/sched)
echo "$schedraw"

echo "$schedraw" | awk -v out="$SCHED_OUT" '
/^BenchmarkScheduleStream[-\t ]/ {
    for (i = 1; i < NF; i++) {
        if ($(i+1) == "ns/op") run_ns = $i
        if ($(i+1) == "jobs/s") jobs_s = $i
    }
}
/^BenchmarkDecide[-\t ]/ { decide_ns = $3 }
/^cpu:/ { $1 = ""; sub(/^ /, ""); cpu = $0 }
END {
    if (run_ns == "" || jobs_s == "" || decide_ns == "") {
        print "bench.sh: missing scheduler benchmark rows in go test output" > "/dev/stderr"
        exit 1
    }
    printf "{\n" > out
    printf "  \"cpu\": \"%s\",\n", cpu >> out
    printf "  \"schedule_stream\": {\"ns_op\": %s, \"admitted_jobs_per_s\": %s},\n", run_ns, jobs_s >> out
    printf "  \"decide\": {\"ns_op\": %s}\n", decide_ns >> out
    printf "}\n" >> out
}'

echo "wrote $SCHED_OUT"

# Cronos MHD solver: the per-step cost of the 13-point stencil at the two
# bracketing problem sizes, serial and slab-parallel. The legacy_* baselines
# were measured once from the pre-tiling solver (plane-at-a-time sweeps over
# AoS state) at benchtime 3x on the reference runner and stay fixed, so every
# rerun reports the speedup of the pencil-tiled SoA engine against them.
cronraw=$(go test -bench 'SolverStep' -benchtime "$BENCHTIME" -run '^$' ./internal/cronos)
echo "$cronraw"

echo "$cronraw" | awk -v out="$CRONOS_OUT" '
/^BenchmarkSolverStepSmallSerial[-\t ]/    { ss_ns = $3 }
/^BenchmarkSolverStepSmallParallel[-\t ]/  { sp_ns = $3 }
/^BenchmarkSolverStepMediumSerial[-\t ]/   { ms_ns = $3 }
/^BenchmarkSolverStepMediumParallel[-\t ]/ { mp_ns = $3 }
/^cpu:/ { $1 = ""; sub(/^ /, ""); cpu = $0 }
END {
    if (ss_ns == "" || sp_ns == "" || ms_ns == "" || mp_ns == "") {
        print "bench.sh: missing cronos benchmark rows in go test output" > "/dev/stderr"
        exit 1
    }
    legacy_ss_ns = 95690065; legacy_sp_ns = 104902990
    legacy_ms_ns = 815726584; legacy_mp_ns = 832985582
    printf "{\n" > out
    printf "  \"cpu\": \"%s\",\n", cpu >> out
    printf "  \"legacy_cpu\": \"Intel(R) Xeon(R) Processor @ 2.10GHz\",\n" >> out
    printf "  \"step_small_serial\": {\"ns_op\": %s, \"legacy_ns_op\": %d, \"speedup\": %.3f},\n", ss_ns, legacy_ss_ns, legacy_ss_ns / ss_ns >> out
    printf "  \"step_small_parallel\": {\"ns_op\": %s, \"legacy_ns_op\": %d, \"speedup\": %.3f},\n", sp_ns, legacy_sp_ns, legacy_sp_ns / sp_ns >> out
    printf "  \"step_medium_serial\": {\"ns_op\": %s, \"legacy_ns_op\": %d, \"speedup\": %.3f},\n", ms_ns, legacy_ms_ns, legacy_ms_ns / ms_ns >> out
    printf "  \"step_medium_parallel\": {\"ns_op\": %s, \"legacy_ns_op\": %d, \"speedup\": %.3f}\n", mp_ns, legacy_mp_ns, legacy_mp_ns / mp_ns >> out
    printf "}\n" >> out
}'

echo "wrote $CRONOS_OUT"

# Frequency-advisor service: end-to-end campaign throughput (answered
# requests per second of wall time over the two-shard test load with a
# hot-reload mid-run) and the per-query latency of an uncached advisory
# lookup (registry lookup + batched curve prediction + deadline decision).
serveraw=$(go test -bench 'ServeCampaign|Advise' -benchtime "$BENCHTIME" -run '^$' ./internal/serve)
echo "$serveraw"

echo "$serveraw" | awk -v out="$SERVE_OUT" '
/^BenchmarkServeCampaign[-\t ]/ {
    for (i = 1; i < NF; i++) {
        if ($(i+1) == "ns/op") run_ns = $i
        if ($(i+1) == "req/s") req_s = $i
    }
}
/^BenchmarkAdvise[-\t ]/ { advise_ns = $3 }
/^cpu:/ { $1 = ""; sub(/^ /, ""); cpu = $0 }
END {
    if (run_ns == "" || req_s == "" || advise_ns == "") {
        print "bench.sh: missing serving benchmark rows in go test output" > "/dev/stderr"
        exit 1
    }
    printf "{\n" > out
    printf "  \"cpu\": \"%s\",\n", cpu >> out
    printf "  \"serve_campaign\": {\"ns_op\": %s, \"answered_req_per_s\": %s},\n", run_ns, req_s >> out
    printf "  \"advise\": {\"ns_op\": %s}\n", advise_ns >> out
    printf "}\n" >> out
}'

echo "wrote $SERVE_OUT"

# Gpusim analytic hot path: one on-menu AnalyzeAt (compile + evaluate) and
# the batched AnalyzeCurve per-point cost over the full V100 menu. The sweep
# rows repeat the serial/parallel medians from above so the end-to-end sweep
# speedup sits next to the kernel-level numbers it depends on.
# baseline_commit is the commit the measured tree was built on: diff this
# file against its version at that commit for the before/after numbers.
#
# These are nanosecond-scale micro-benchmarks, so they average over wall time
# (default 1s per arm) instead of the iteration-count BENCHTIME the macro
# benchmarks use — at 3 iterations the timer noise would swamp the signal.
GPUSIM_BENCHTIME=${GPUSIM_BENCHTIME:-1s}
gpuraw=$(GOMAXPROCS="$BENCH_GOMAXPROCS" go test -bench 'AnalyzeAt|AnalyzeCurve' -benchtime "$GPUSIM_BENCHTIME" -run '^$' ./internal/gpusim)
echo "$gpuraw"

{ echo "$raw"; echo "$gpuraw"; } | awk -v out="$GPUSIM_OUT" -v commit="$(git rev-parse --short HEAD)" "$AWK_MEDIAN"'
/^BenchmarkAnalyzeAt[- \t]/ { at_ns = $3 }
/^BenchmarkAnalyzeCurve[- \t]/ {
    for (i = 1; i < NF; i++) if ($(i+1) == "ns/point") curve_ns = $i
}
/^BenchmarkSweepSerialVsParallel\/serial/   { sweep_s = sweep_s " " $3 }
/^BenchmarkSweepSerialVsParallel\/parallel/ { sweep_p = sweep_p " " $3 }
/^cpu:/ { $1 = ""; sub(/^ /, ""); cpu = $0 }
END {
    if (at_ns == "" || curve_ns == "" || sweep_s == "" || sweep_p == "") {
        print "bench.sh: missing gpusim benchmark rows in go test output" > "/dev/stderr"
        exit 1
    }
    sweep_s = median(sweep_s); sweep_p = median(sweep_p)
    printf "{\n" > out
    printf "  \"cpu\": \"%s\",\n", cpu >> out
    printf "  \"gomaxprocs\": %d,\n", ENVIRON["BENCH_GOMAXPROCS"] >> out
    printf "  \"baseline_commit\": \"%s\",\n", commit >> out
    printf "  \"analyze_at\": {\"ns_op\": %s},\n", at_ns >> out
    printf "  \"analyze_curve\": {\"ns_point\": %s},\n", curve_ns >> out
    printf "  \"sweep\": {\"serial_ns_op\": %d, \"parallel_ns_op\": %d, \"speedup\": %.3f}\n", \
        sweep_s, sweep_p, sweep_s / sweep_p >> out
    printf "}\n" >> out
}'

echo "wrote $GPUSIM_OUT"
