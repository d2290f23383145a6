#!/usr/bin/env bash
# Benchmark driver: builds Release and runs every plain-main microbench
# from the repository root, so each BENCH_*.json lands next to the
# sources (the committed copies are regenerated by re-running this).
#
# Usage: tools/bench.sh             (full runs; minutes on a laptop)
#        tools/bench.sh --smoke     (seconds-scale run of every bench)
#        JOBS=8 tools/bench.sh      (override build parallelism)
#
# Any extra arguments are forwarded verbatim to every microbench.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"

cmake -B build -S . -DCMAKE_BUILD_TYPE=Release
cmake --build build -j "$JOBS" --target \
    microbench_query_parallel microbench_buffer_pool \
    microbench_fault_injection microbench_batch_knn \
    microbench_quantized_knn microbench_recall \
    microbench_service microbench_bulk_load microbench_join

BENCHES=(microbench_query_parallel microbench_buffer_pool
         microbench_fault_injection microbench_batch_knn
         microbench_quantized_knn microbench_recall
         microbench_service microbench_bulk_load microbench_join)
for b in "${BENCHES[@]}"; do
    echo "== ${b} $* =="
    "./build/bench/${b}" "$@"
    echo
done

echo "bench: all benchmarks passed their built-in acceptance checks"
