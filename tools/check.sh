#!/bin/sh
# Full pre-merge check: a Release build and an ASan+UBSan build, the
# test suite under both, a build and self-test of the repository
# benchmark (perfbench/, which compiles against src/ headers such as
# core/opg.hh), an observability smoke run whose output files are
# validated by tools/check_obs_json.py, and a TSan build exercising
# the parallel sweep runner and the sharded server (its gtests, a
# multi-threaded smoke run and the replay differential).
#
# Test tiers (ctest labels): the Release build runs everything —
# unit, property, integration, and fuzz-smoke (a short deterministic
# pacache_fuzz campaign plus a replay of the committed corpus). The
# sanitizer builds exclude fuzz-smoke (-LE fuzz-smoke): the campaign
# re-runs whole experiments hundreds of times, which is wasted time
# under 10-20x sanitizer overhead; instead each sanitizer gets a
# small dedicated campaign sized for it. The crash tier (ctest -L
# crash, plus the timed crash campaign below) covers the WTDU
# power-failure fault-injection properties.
#
# Usage: tools/check.sh            (from the repository root)
#        JOBS=4 tools/check.sh     (limit build parallelism)

set -eu

root=$(cd "$(dirname "$0")/.." && pwd)
jobs=${JOBS:-$(nproc 2>/dev/null || echo 4)}

step() {
    printf '\n== %s ==\n' "$*"
}

step "Release build"
cmake -B "$root/build-release" -S "$root" \
      -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build "$root/build-release" -j "$jobs"

step "Release tests (all tiers)"
ctest --test-dir "$root/build-release" --output-on-failure -j "$jobs"

step "fuzz campaign smoke (Release)"
# Deterministic short campaign across the whole property registry; a
# failure names the case index and emits a shrunk reproducer.
"$root/build-release/tools/pacache_fuzz" \
    --seconds 10 --seed 1 --jobs "$jobs" \
    --corpus-out "$root/build-release/fuzz_corpus"

step "crash-recovery campaign (Release)"
# 2500 small cases x 4 crash properties = 10000 fault scenarios
# through the WTDU fault-injection layer (DESIGN.md 5j). The case
# stream is --jobs-invariant by construction; the cmp proves it on
# every run (wall-clock line stripped).
crash_dir=$(mktemp -d)
"$root/build-release/tools/pacache_fuzz" \
    --crash --cases 2500 --seed 1 --jobs "$jobs" \
    --corpus-out "$root/build-release/crash_corpus" \
    | grep -v '^campaign:' > "$crash_dir/crash_jN.txt"
"$root/build-release/tools/pacache_fuzz" \
    --crash --cases 2500 --seed 1 --jobs 1 \
    | grep -v '^campaign:' > "$crash_dir/crash_j1.txt"
cmp "$crash_dir/crash_j1.txt" "$crash_dir/crash_jN.txt"
rm -rf "$crash_dir"

step "crash corpus replay (Release, ctest -L crash)"
ctest --test-dir "$root/build-release" --output-on-failure -L crash

step "oracle fast-path benchmark gate"
# micro_opg replays the fig6-scale OLTP workload through the fast and
# reference oracle stacks (verifying byte-identical results) and
# reports speedup ratios; bench_compare.py gates them against the
# committed baseline. Ratios, not absolute times, are compared — the
# interleaved-pair timing makes them stable across hosts. Set
# SKIP_BENCH_GATE=1 to skip on machines too loaded to bench.
if [ "${SKIP_BENCH_GATE:-0}" = "1" ]; then
    echo "skipped (SKIP_BENCH_GATE=1)"
else
    bench_dir=$(mktemp -d)
    PACACHE_BENCH_DIR="$bench_dir" \
        "$root/build-release/bench/micro_opg"
    python3 "$root/tools/bench_compare.py" \
        "$bench_dir/BENCH_micro_opg.json" \
        "$root/bench/baselines/BENCH_micro_opg.json" \
        --min opg_replay_speedup=2.5 \
        --trend "$root/bench/baselines/BENCH_TREND.json"
    rm -rf "$bench_dir"
fi

step "observability overhead benchmark gate"
# micro_obs replays the fig6-scale OLTP workload with the null
# observer and with the full observability stack (verifying
# bit-identical simulation results) and reports the null-path
# throughput plus the observed/null ratio; the tight 2% tolerance
# asserts observability never bleeds into the un-instrumented path.
# 15 best-of reps keep both metrics stable to ~1% run-to-run, which
# the default 5 do not on a loaded host.
if [ "${SKIP_BENCH_GATE:-0}" = "1" ]; then
    echo "skipped (SKIP_BENCH_GATE=1)"
else
    bench_dir=$(mktemp -d)
    PACACHE_BENCH_DIR="$bench_dir" PACACHE_BENCH_REPS=15 \
        "$root/build-release/bench/micro_obs"
    python3 "$root/tools/bench_compare.py" \
        "$bench_dir/BENCH_micro_obs.json" \
        "$root/bench/baselines/BENCH_micro_obs.json" \
        --tolerance 0.02 \
        --trend "$root/bench/baselines/BENCH_TREND.json"
    rm -rf "$bench_dir"
fi

step "serve throughput benchmark gate"
# micro_serve drives the sharded server with the open-loop load
# generator (verifying run-to-run determinism and ledger
# conservation) and reports end-to-end throughput; the 1.0 M req/s
# floor is the serving acceptance criterion. Latency percentiles in
# the report are informational (info_ prefix) and never gated.
if [ "${SKIP_BENCH_GATE:-0}" = "1" ]; then
    echo "skipped (SKIP_BENCH_GATE=1)"
else
    bench_dir=$(mktemp -d)
    PACACHE_BENCH_DIR="$bench_dir" \
        "$root/build-release/bench/micro_serve"
    python3 "$root/tools/bench_compare.py" \
        "$bench_dir/BENCH_serve.json" \
        "$root/bench/baselines/BENCH_serve.json" \
        --min serve_mrps=1.0 \
        --trend "$root/bench/baselines/BENCH_TREND.json"
    rm -rf "$bench_dir"
fi

step "out-of-core scale benchmark gate"
# micro_scale stream-generates a scaled OLTP trace and replays it
# (windowed off-line oracle, trace = 10x window, then disk-sharded
# across the pool) under a fixed oracle memory budget FIRST, then
# unbounded — verifying bit-identical reps, jobs=1 == jobs=N, and
# budgeted == unbounded fingerprints. Two gated metrics: the
# max_peak_rss_mb CEILING is sampled after the budgeted phases (the
# out-of-core acceptance criterion: replay memory stays bounded, with
# a 256 MiB hard ceiling on top of the baseline comparison), and
# budget_throughput_ratio must hold the >= 0.8 acceptance floor
# (bounding memory may not cost more than 20% of replay throughput).
if [ "${SKIP_BENCH_GATE:-0}" = "1" ]; then
    echo "skipped (SKIP_BENCH_GATE=1)"
else
    bench_dir=$(mktemp -d)
    PACACHE_BENCH_DIR="$bench_dir" \
        "$root/build-release/bench/micro_scale"
    python3 "$root/tools/bench_compare.py" \
        "$bench_dir/BENCH_scale.json" \
        "$root/bench/baselines/BENCH_scale.json" \
        --max max_peak_rss_mb=256 \
        --min budget_throughput_ratio=0.8 \
        --trend "$root/bench/baselines/BENCH_TREND.json"
    rm -rf "$bench_dir"
fi

step "sharded streaming determinism smoke (Release)"
# Reduced-scale version of the billion-request workflow: stream a
# 1e7-record x 64-disk scaled OLTP trace to .pct (never
# materialized), then replay it disk-sharded with the windowed OPG
# oracle under a tight oracle memory budget (64 MiB across 8 shards
# — every tier spills: the deterministic-miss sets, the next-use
# indexes and the cold-miss bitmap) at --jobs 1 and --jobs 8, plus
# once unbudgeted. All three reports must be byte-identical: worker count
# only changes scheduling, and spilling only changes where oracle
# bytes live — never statistics.
scale_dir=$(mktemp -d)
"$root/build-release/tools/pacache_tracegen" \
    --scale --workload oltp --disks 64 --requests 10000000 \
    --out "$scale_dir/scale.pct"
for j in 1 8; do
    "$root/build-release/tools/pacache_sim" \
        --trace "$scale_dir/scale.pct" --stream --shards 8 \
        --jobs "$j" --policy opg --window 1000000 \
        --cache-blocks 65536 --oracle-mem-budget 64 \
        > "$scale_dir/shard_j$j.txt"
done
cmp "$scale_dir/shard_j1.txt" "$scale_dir/shard_j8.txt"
"$root/build-release/tools/pacache_sim" \
    --trace "$scale_dir/scale.pct" --stream --shards 8 \
    --jobs 8 --policy opg --window 1000000 \
    --cache-blocks 65536 > "$scale_dir/shard_unbudgeted.txt"
cmp "$scale_dir/shard_j8.txt" "$scale_dir/shard_unbudgeted.txt"
rm -rf "$scale_dir"

step "benchmark build and self-test (perfbench)"
# Builds perfbench into .bench_build/ and runs every workload in both
# modes (untraced and traced) at a tiny size with every correctness
# gate on, so an API change that breaks the benchmark fails here.
python3 "$root/perfbench/run.py" --selftest

step "ASan+UBSan build"
cmake -B "$root/build-asan" -S "$root" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DPACACHE_SANITIZE=address,undefined >/dev/null
cmake --build "$root/build-asan" -j "$jobs"

step "ASan+UBSan tests (fuzz smoke excluded)"
ctest --test-dir "$root/build-asan" --output-on-failure -j "$jobs" \
      -LE fuzz-smoke

step "ASan+UBSan mini fuzz campaign"
# A handful of cases is enough to drag generated workloads through
# every experiment layer under ASan/UBSan.
"$root/build-asan/tools/pacache_fuzz" --cases 8 --seed 2

step "ASan+UBSan oracle campaign"
# The mini campaign above rarely reaches OPG's incremental
# bookkeeping; 300 cases of the four oracle properties drag the
# deterministic-miss sets, the next-use index and their spill tier
# (budgeted, windowed, materialized and reference replays) through
# ASan/UBSan.
oracle_props=windowed_oracle_equivalence,spilled_oracle_equivalence
oracle_props=$oracle_props,opg_matches_ref,opg_incremental_consistent
"$root/build-asan/tools/pacache_fuzz" --cases 300 --seed 4 \
    --jobs "$jobs" --property "$oracle_props"

step "ASan+UBSan mini crash campaign"
# The crash properties throw and unwind through the whole write path
# mid-flight — exactly where lifetime bugs would hide; ~250 cases
# drag every crash site through ASan/UBSan.
"$root/build-asan/tools/pacache_fuzz" --crash --cases 250 --seed 5

step "observability smoke run (sanitized binary)"
obs_dir=$(mktemp -d)
trap 'rm -rf "$obs_dir"' EXIT
"$root/build-asan/tools/pacache_sim" \
    --workload oltp --policy pa-lru --write wtdu --dpm practical \
    --metrics-out "$obs_dir/m.json" \
    --trace-events "$obs_dir/t.json" \
    --timeline "$obs_dir/tl.jsonl" --timeline-interval 900 \
    --energy-ledger --profile \
    > "$obs_dir/report.txt"
python3 "$root/tools/check_obs_json.py" \
    "$obs_dir/m.json" "$obs_dir/t.json" "$obs_dir/tl.jsonl"
grep -q "energy ledger" "$obs_dir/report.txt"
grep -q "profile (wall clock)" "$obs_dir/report.txt"
# Prometheus-style flat exposition (same run, .prom suffix).
"$root/build-asan/tools/pacache_sim" \
    --workload oltp --duration 600 --policy lru \
    --metrics-out "$obs_dir/m.prom" > /dev/null
grep -q "^run_wall_ms " "$obs_dir/m.prom"

step "trace ingestion smoke run (sanitized binaries)"
# Generate a workload, convert it through the binary .pct format, and
# require the simulator report to be byte-identical whether the trace
# comes from text, from .pct, or is streamed record by record.
"$root/build-asan/tools/pacache_tracegen" \
    --workload synthetic --requests 2000 --out "$obs_dir/w.txt"
"$root/build-asan/tools/pacache_tracectl" convert \
    --in "$obs_dir/w.txt" --out "$obs_dir/w.pct"
"$root/build-asan/tools/pacache_tracectl" info --in "$obs_dir/w.pct"
"$root/build-asan/tools/pacache_sim" \
    --trace "$obs_dir/w.txt" --policy pa-lru --write wbeu \
    > "$obs_dir/sim_text.txt"
"$root/build-asan/tools/pacache_sim" \
    --trace "$obs_dir/w.pct" --policy pa-lru --write wbeu \
    > "$obs_dir/sim_pct.txt"
"$root/build-asan/tools/pacache_sim" \
    --trace "$obs_dir/w.pct" --policy pa-lru --write wbeu --stream \
    > "$obs_dir/sim_stream.txt"
cmp "$obs_dir/sim_text.txt" "$obs_dir/sim_pct.txt"
cmp "$obs_dir/sim_text.txt" "$obs_dir/sim_stream.txt"

step "TSan build"
cmake -B "$root/build-tsan" -S "$root" \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DPACACHE_SANITIZE=thread >/dev/null
cmake --build "$root/build-tsan" -j "$jobs" \
      --target pacache_tests pacache_fuzz pacache_serve

step "TSan parallel sweep and serve tests"
# The work-stealing pool must produce byte-identical results at any
# job count, and the serve stripes (rings, stripe locks, per-stripe
# SimStacks, crash-at-shutdown) must match replay, with no data races
# while doing so.
"$root/build-tsan/tests/pacache_tests" \
    --gtest_filter='ThreadPool.*:SweepRunner.*:ServeServer.*:ServeCrash.*:RequestRing.*'

step "TSan fuzz campaign (threaded)"
# The campaign driver shares the pool across batches; run it with
# several workers so TSan sees the real submit/wait traffic.
"$root/build-tsan/tools/pacache_fuzz" --cases 12 --seed 3 --jobs 4

step "TSan serve smoke (multi-threaded)"
# Drive the sharded server with 4 workers and 2 producers so TSan
# sees the real ring/stripe-lock traffic, and require the energy
# ledger to stay conservation-exact under concurrency. TSan aborts
# the run on any data race; the grep asserts the ledger check.
"$root/build-tsan/tools/pacache_serve" \
    --requests 60000 --rate 20000 --shards 4 --threads 4 \
    --producers 2 --policy pa-lru --per-shard \
    > "$obs_dir/serve.txt"
grep -q "energy ledger conservation: ok" "$obs_dir/serve.txt"

step "TSan serve replay differential"
# The concurrent replay must match the single-threaded simulator
# bit for bit (exit 1 on any counter or 1e-9 energy mismatch).
"$root/build-tsan/tools/pacache_serve" \
    --workload synthetic --requests 4000 --policy pa-lru \
    --write wtdu --shards 1 --threads 3 --verify-replay

step "all checks passed"
