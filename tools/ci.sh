#!/usr/bin/env bash
# CI driver for the execution layer.
#
#   1. Clean Release build of every target, failing on any compiler
#      warning that points into the repo's own sources (src/, tests/,
#      tools/, bench/, examples/; the library already builds with
#      -Werror, the other targets do not). Diagnostics under
#      /usr/include — GCC 12's libstdc++ false positives — are not
#      matched. Then the full test suite (the tier-1 gate) and the
#      perf ledger's smoke mode (bench/ledger/run.py --smoke): all five
#      ledger workloads at about 1/50 size for 1 s each, exiting nonzero
#      on any wrong answer (k-NN oracle, page conservation, join pairs,
#      the read-write live-set oracle). bench/ledger/perf_ledger.cc
#      compiles against the stats structs' fields, so it runs before the
#      slow sanitizer lanes: a reshaped struct fails the run in minutes.
#   2. ASAN+UBSAN build + the full test suite: any heap error, leak, or
#      undefined behavior anywhere in the library fails the run
#      (-fno-sanitize-recover makes every UBSAN report fatal). GCC's
#      -fsanitize=undefined leaves out float-cast-overflow, so it is
#      named too: a double that does not fit the integer it is converted
#      to (say, an infinite deadline cast to clock ticks, or the SQ8
#      sweep's -1 "base term prunes all" cutoff reaching
#      detail::IntCutoff past its guard) fails the run.
#   3. ThreadSanitizer build running the concurrency-sensitive tests:
#      any data race in the cost-capture / thread-pool / QueryBatch path
#      fails the run.
#      Lanes 2 and 3 replace RelWithDebInfo's flags with "-O1 -g" (no
#      -DNDEBUG), so every PARSIM_DCHECK is evaluated there; the Release
#      lane compiles them out. CheckDeathTest.DcheckFiresWithoutNdebug
#      (util_status_test) dies on a DCHECK in those builds and prints a
#      "[ dcheck ]" skip line in the others. detail::IntCutoff DCHECKs
#      that its cutoff is not negative, so every SQ8 sweep in those
#      lanes checks that the caller guarded it.
#   4. Smoke run of every microbench (seconds-scale workloads): their
#      built-in identity and invariant checks run on every CI pass, not
#      just when someone regenerates the BENCH_*.json files.
#
# Usage: tools/ci.sh            (from anywhere; builds into build-ci/,
#                                build-asan/, build-tsan/ and, for the
#                                ledger, build-ledger/ next to the
#                                sources)
#        JOBS=8 tools/ci.sh     (override build/test parallelism)

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

echo "== [1/4] Release build + full suite + perf ledger smoke =="
cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release
# --clean-first: every source compiles, so every warning reaches the log.
cmake --build build-ci -j "$JOBS" --clean-first 2>&1 \
    | tee build-ci/build.log
if grep -E "^($PWD/)?(src|tests|tools|bench|examples)/[^:]+:[0-9]+:([0-9]+:)? warning:" \
        build-ci/build.log; then
    echo "ci: compiler warnings in repo sources (listed above)" >&2
    exit 1
fi
ctest --test-dir build-ci --output-on-failure -j "$JOBS"
echo "-- smoke: perf ledger"
python3 bench/ledger/run.py --smoke --out build-ci/ledger-smoke

echo "== [2/4] ASAN+UBSAN (+float-cast-overflow) build + full suite =="
cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O1 -g" \
    -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined,float-cast-overflow -fno-sanitize-recover=all" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address,undefined,float-cast-overflow"
cmake --build build-asan -j "$JOBS"
# The index tests churn millions of tiny Rect allocations; ASAN's
# default per-malloc stack capture (30 frames) and 256 MB quarantine
# turn the largest of them from seconds into the better part of an hour
# on a small CI box. Shallow alloc stacks + a small quarantine keep
# every check (and leak detection) enabled at ~4x the speed; when a
# report does fire, re-run the one test with ASAN_OPTIONS unset to get
# full allocation stacks back.
ASAN_OPTIONS="detect_leaks=1:abort_on_error=1:malloc_context_size=2:quarantine_size_mb=16" \
UBSAN_OPTIONS="print_stacktrace=1" \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS"
if ./build-asan/tests/util_status_test --gtest_filter='CheckDeathTest.*' 2>&1 \
        | grep -F "[ dcheck ]"; then
    echo "ci: PARSIM_DCHECK is compiled out in the sanitizer build" >&2
    exit 1
fi

echo "== [3/4] TSAN build + concurrency tests =="
# io_buffer_pool_test hammers the sharded pool from raw threads;
# parallel_concurrency_test covers concurrent buffered batches;
# parallel_batch_coalesced_test runs the coalesced round scheduler
# (pool workers reading the leaf blocks the nodes own) on an 8-worker
# pool;
# golden_stats_test pins the buffered serial and coalesced 8-thread
# accounting;
# index_quantized_block_test exercises the SQ8 sweep path (whose
# per-thread scratch and cached kernel dispatch must stay race-free)
# alongside the concurrent engines, including a threaded coalesced SQ8
# batch at d=16, a pooled engine build, and the
# phase-profiled coalesced batch (thread-local capture install/remove
# under a pool); index_approx_knn_test runs the approximate tier (one
# epsilon drives the frontier skips and the relaxed SQ8 cutoff
# together) and its per-query counters on a multi-worker coalesced
# batch;
# parallel_service_test runs the query service's dispatcher thread
# against concurrent submitters (deadlines, backpressure, priorities,
# 8-worker determinism); util_parallel_sort_test and
# index_bulk_load_parallel_test run the deterministic parallel merge
# sort and the full parallel bulk-load path (key batches, slab tiling,
# level packing with the directory images and leaf blocks each group
# task builds, the pooled leaf-route fill) on 8-worker pools, and the
# latter is the leaf-block identity check: it compares every node,
# directory image and leaf block (SQ8 mirror included) with the serial
# build's; parallel_join_test
# fans the self-join's pooled block-pair prune (one task per level-1
# parent) and row sorts, codebook builds, block-pair row sweeps and
# merge bucket sorts over pools of 2, 3 and 8 workers and asserts the
# pair list and every counter are thread-count invariant.
TSAN_TESTS=(util_thread_pool_test util_parallel_sort_test
            io_buffer_pool_test
            parallel_concurrency_test parallel_threads_test
            parallel_batch_coalesced_test
            parallel_degraded_query_test golden_stats_test
            index_quantized_block_test
            index_approx_knn_test parallel_service_test
            index_bulk_load_parallel_test parallel_join_test)
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS_RELWITHDEBINFO="-O1 -g" \
    -DCMAKE_CXX_FLAGS="-fsanitize=thread" \
    -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread"
cmake --build build-tsan -j "$JOBS" --target "${TSAN_TESTS[@]}"
for t in "${TSAN_TESTS[@]}"; do
    echo "-- tsan: ${t}"
    "./build-tsan/tests/${t}"
done

echo "== [4/4] microbench smoke lane =="
# Seconds-scale workloads; each bench exits nonzero if its bit-identity
# or page-conservation checks fail.
MICROBENCHES=(microbench_query_parallel microbench_buffer_pool
              microbench_fault_injection microbench_batch_knn
              microbench_quantized_knn microbench_recall
              microbench_service
              microbench_bulk_load microbench_join)
cmake --build build-ci -j "$JOBS" --target "${MICROBENCHES[@]}"
# Run from build-ci so the smoke-sized JSON files do not overwrite the
# committed full-run BENCH_*.json at the repo root (tools/bench.sh
# regenerates those).
for b in "${MICROBENCHES[@]}"; do
    echo "-- smoke: ${b}"
    (cd build-ci && "./bench/${b}" --smoke)
done

echo "ci: all green"
