// Microbenchmark of the all-pairs ε-similarity self-join. Plain main()
// binary (no google-benchmark).
//
// For d in {8, 16} a clustered workload (32 Gaussian clusters — the
// regime the MBR prefilter and the SQ8 prune are built for) is joined
// three ways over the same epsilon:
//
//   exhaustive  — quantization off: every candidate pair of every
//                 surviving block pair goes through the exact float
//                 kernel (serial),
//   sq8         — the SQ8 prune -> exact-rerank sweep (serial),
//   sq8 x T     — the same sweep fanned out over an 8-thread pool.
//
// Epsilon is calibrated per (d, n) from a sampled pair-distance
// quantile so the join emits ~5n pairs whatever the scale — dense
// enough to be a real workload, sparse enough that pruning can win.
//
// The headline metric is candidate pairs per second: every config
// triages the IDENTICAL candidate set (the exact path evaluates it in
// full; the SQ8 sweep prunes + re-ranks it — the join tests assert
// quantized_pruned + reranked == exact_distances), so speedup ratios
// equal time ratios with no denominator games. The emitted pair lists
// of all three configs must be bit-identical, and are additionally
// checked against the O(n^2) oracle when n <= 50000 (always in
// --smoke).
//
// Floors: sq8 >= 4x exhaustive at d=16 is CPU-bound and enforced in
// full runs; the >= 3x 8-thread wall-clock floor is hardware-dependent
// and enforced only on machines with >= 4 hardware threads (never in
// --smoke), with hardware_threads reported honestly in the JSON — same
// convention as microbench_bulk_load.
//
// Output: a table on stdout and BENCH_join.json; exit 1 on any
// identity/floor violation. Scale with PARSIM_BENCH_N (up to 1M) /
// PARSIM_BENCH_THREADS, or pass --smoke for a seconds-fast CI variant.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "bench/microbench_common.h"
#include "src/core/near_optimal.h"
#include "src/parallel/engine.h"
#include "src/util/random.h"
#include "src/util/stopwatch.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

using bench::BestOfMs;
using bench::EnvSize;

std::unique_ptr<ParallelSearchEngine> MakeEngine(const PointSet& data,
                                                 bool quantized) {
  EngineOptions options;
  options.architecture = Architecture::kSharedTree;
  options.bulk_load = true;
  options.bulk_load_fill = 1.0;
  options.quantized_leaf_blocks = quantized;
  auto engine = std::make_unique<ParallelSearchEngine>(
      data.dim(), std::make_unique<NearOptimalDeclusterer>(data.dim(), 8),
      options);
  if (!engine->Build(data).ok()) {
    std::fprintf(stderr, "engine build failed\n");
    std::exit(1);
  }
  engine->WarmLeafBlocks();
  return engine;
}

/// Epsilon that makes the join emit ~`target_pairs` pairs: the matching
/// quantile of the pair-distance distribution, estimated from
/// `samples` uniformly sampled point pairs.
double CalibrateEps(const PointSet& data, double target_pairs,
                    std::size_t samples, std::uint64_t seed) {
  const double n = static_cast<double>(data.size());
  const double all_pairs = n * (n - 1.0) / 2.0;
  const double quantile = std::min(1.0, target_pairs / all_pairs);
  Rng rng(seed);
  const Metric metric;
  std::vector<double> dists;
  dists.reserve(samples);
  for (std::size_t s = 0; s < samples; ++s) {
    const std::size_t i =
        static_cast<std::size_t>(rng.NextBounded(data.size()));
    std::size_t j = static_cast<std::size_t>(rng.NextBounded(data.size()));
    if (j == i) j = (j + 1) % data.size();
    dists.push_back(metric.Comparable(data[i], data[j]));
  }
  std::size_t rank = static_cast<std::size_t>(quantile *
                                              static_cast<double>(samples));
  rank = std::min(rank, dists.size() - 1);
  std::nth_element(dists.begin(), dists.begin() + static_cast<long>(rank),
                   dists.end());
  return metric.FromComparable(dists[rank]);
}

bool SamePairs(const std::vector<JoinPair>& a,
               const std::vector<JoinPair>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i] == b[i])) return false;
  }
  return true;
}

struct ConfigRow {
  std::size_t dim = 0;
  double eps = 0.0;
  std::uint64_t pairs = 0;
  std::uint64_t candidates = 0;   // exact-path float kernel evaluations
  std::uint64_t pruned = 0;       // sq8: candidates killed pre-rerank
  std::uint64_t block_pairs_considered = 0;
  std::uint64_t block_pairs_swept = 0;
  std::uint64_t coalesced_reads = 0;
  double exhaustive_ms = 0.0;
  double sq8_ms = 0.0;
  double sq8_mt_ms = 0.0;
  double sq8_speedup = 0.0;
  double thread_speedup = 0.0;
};

int Run(bool smoke) {
  const std::size_t n = EnvSize("PARSIM_BENCH_N", smoke ? 20000 : 200000);
  const unsigned threads = static_cast<unsigned>(
      EnvSize("PARSIM_BENCH_THREADS", 8));
  const unsigned hardware = std::thread::hardware_concurrency();
  const int reps = smoke ? 1 : 2;
  std::printf("all-pairs similarity join: n=%zu threads=%u "
              "(hardware threads: %u)%s\n",
              n, threads, hardware, smoke ? " [smoke]" : "");
  std::printf(
      "%4s %10s %12s %14s %9s %12s %10s %10s %8s %8s\n", "dim", "eps",
      "pairs", "candidates", "pruned%", "exhaust_ms", "sq8_ms", "sq8xT_ms",
      "sq8_x", "thr_x");

  int failures = 0;
  std::vector<ConfigRow> rows;
  for (const std::size_t dim : {std::size_t{8}, std::size_t{16}}) {
    const PointSet data =
        GenerateClusteredGaussian(n, dim, 32, 0.02, 6601 + dim);
    ConfigRow row;
    row.dim = dim;
    row.eps = CalibrateEps(data, 5.0 * static_cast<double>(n),
                           smoke ? 500000 : 2000000, 6701 + dim);

    const auto exact_engine = MakeEngine(data, /*quantized=*/false);
    const auto sq8_engine = MakeEngine(data, /*quantized=*/true);
    JoinOptions serial_opts;
    serial_opts.threads = 1;
    JoinOptions mt_opts;
    mt_opts.threads = threads;

    // Untimed passes for the identity checks and counters.
    const JoinResult exact = exact_engine->SelfJoin(row.eps, serial_opts);
    const JoinResult sq8 = sq8_engine->SelfJoin(row.eps, serial_opts);
    const JoinResult sq8_mt = sq8_engine->SelfJoin(row.eps, mt_opts);
    if (!SamePairs(exact.pairs, sq8.pairs) ||
        !SamePairs(exact.pairs, sq8_mt.pairs)) {
      std::fprintf(stderr,
                   "FAIL d=%zu: pair lists differ across configurations\n",
                   dim);
      ++failures;
    }
    if (n <= 50000) {
      const std::vector<JoinPair> oracle = BruteForceSelfJoin(data, row.eps);
      if (!SamePairs(oracle, exact.pairs)) {
        std::fprintf(stderr, "FAIL d=%zu: join != O(n^2) oracle\n", dim);
        ++failures;
      }
    }
    row.pairs = exact.stats.pairs_emitted;
    row.candidates = exact.stats.exact_distances;
    row.pruned = sq8.stats.quantized_pruned;
    row.block_pairs_considered = exact.stats.block_pairs_considered;
    row.block_pairs_swept = exact.stats.block_pairs_swept;
    row.coalesced_reads = exact.stats.coalesced_reads;
    if (sq8.stats.quantized_pruned + sq8.stats.reranked != row.candidates) {
      std::fprintf(stderr,
                   "FAIL d=%zu: sq8 candidate accounting mismatch\n",
                   dim);
      ++failures;
    }

    row.exhaustive_ms = BestOfMs(reps, [&] {
      exact_engine->SelfJoin(row.eps, serial_opts);
    });
    row.sq8_ms = BestOfMs(reps, [&] {
      sq8_engine->SelfJoin(row.eps, serial_opts);
    });
    row.sq8_mt_ms = BestOfMs(reps, [&] {
      sq8_engine->SelfJoin(row.eps, mt_opts);
    });
    row.sq8_speedup = row.exhaustive_ms / row.sq8_ms;
    row.thread_speedup = row.sq8_ms / row.sq8_mt_ms;

    std::printf(
        "%4zu %10.5f %12llu %14llu %8.1f%% %12.2f %10.2f %10.2f %7.2fx "
        "%7.2fx\n",
        dim, row.eps, static_cast<unsigned long long>(row.pairs),
        static_cast<unsigned long long>(row.candidates),
        100.0 * static_cast<double>(row.pruned) /
            static_cast<double>(std::max<std::uint64_t>(1, row.candidates)),
        row.exhaustive_ms, row.sq8_ms, row.sq8_mt_ms, row.sq8_speedup,
        row.thread_speedup);
    rows.push_back(row);
  }

  // Floors (see file comment): the SQ8 floor is CPU-bound and holds on
  // any machine; the thread floor needs real cores.
  const double sq8_floor = 4.0;
  const double thread_floor = 3.0;
  const bool thread_floor_enforced = !smoke && hardware >= 4;
  for (const ConfigRow& row : rows) {
    if (row.dim != 16) continue;
    if (!smoke && row.sq8_speedup < sq8_floor) {
      std::fprintf(stderr,
                   "FAIL d=16: sq8 speedup %.2fx below the %.1fx floor\n",
                   row.sq8_speedup, sq8_floor);
      ++failures;
    }
    if (thread_floor_enforced && row.thread_speedup < thread_floor) {
      std::fprintf(stderr,
                   "FAIL d=16: %u-thread speedup %.2fx below the %.1fx "
                   "floor\n",
                   threads, row.thread_speedup, thread_floor);
      ++failures;
    }
  }
  if (!thread_floor_enforced && !smoke) {
    std::printf(
        "note: %u hardware thread(s) — the %.1fx %u-thread wall-clock floor "
        "is reported, not enforced, on this machine\n",
        hardware, thread_floor, threads);
  }

  FILE* json = std::fopen("BENCH_join.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_join.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"join\",\n");
  std::fprintf(json,
               "  \"config\": {\"n\": %zu, \"threads\": %u, "
               "\"clusters\": 32, \"smoke\": %s},\n",
               n, threads, smoke ? "true" : "false");
  std::fprintf(json, "  \"hardware_threads\": %u,\n", hardware);
  std::fprintf(json, "  \"configs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ConfigRow& r = rows[i];
    std::fprintf(
        json,
        "    {\"dim\": %zu, \"eps\": %.6f, \"pairs\": %llu, "
        "\"candidates\": %llu, \"pruned\": %llu, "
        "\"block_pairs_considered\": %llu, \"block_pairs_swept\": %llu, "
        "\"coalesced_reads\": %llu,\n"
        "     \"exhaustive_ms\": %.3f, \"sq8_serial_ms\": %.3f, "
        "\"sq8_mt_ms\": %.3f,\n"
        "     \"candidate_pairs_per_sec_exhaustive\": %.0f, "
        "\"candidate_pairs_per_sec_sq8\": %.0f, "
        "\"candidate_pairs_per_sec_sq8_mt\": %.0f,\n"
        "     \"sq8_speedup\": %.3f, \"sq8_floor\": %.1f, "
        "\"sq8_floor_enforced\": %s, \"thread_speedup\": %.3f, "
        "\"thread_floor\": %.1f, \"thread_floor_enforced\": %s}%s\n",
        r.dim, r.eps, static_cast<unsigned long long>(r.pairs),
        static_cast<unsigned long long>(r.candidates),
        static_cast<unsigned long long>(r.pruned),
        static_cast<unsigned long long>(r.block_pairs_considered),
        static_cast<unsigned long long>(r.block_pairs_swept),
        static_cast<unsigned long long>(r.coalesced_reads), r.exhaustive_ms,
        r.sq8_ms, r.sq8_mt_ms,
        1000.0 * static_cast<double>(r.candidates) / r.exhaustive_ms,
        1000.0 * static_cast<double>(r.candidates) / r.sq8_ms,
        1000.0 * static_cast<double>(r.candidates) / r.sq8_mt_ms,
        r.sq8_speedup, sq8_floor,
        (!smoke && r.dim == 16) ? "true" : "false", r.thread_speedup,
        thread_floor,
        (thread_floor_enforced && r.dim == 16) ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"failures\": %d\n}\n", failures);
  std::fclose(json);
  std::printf("wrote BENCH_join.json (%d failure%s)\n", failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace parsim

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return parsim::Run(smoke);
}
