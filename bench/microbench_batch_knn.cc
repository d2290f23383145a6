// Microbenchmark of the batched multi-query k-NN path: SoA leaf blocks,
// many-to-many SIMD kernels, and cross-query page-read coalescing. Plain
// main() binary (no google-benchmark).
//
// Workload: a hot-spot query mix — queries cluster around a few data
// points, so concurrent k-NN frontiers request the same tree pages; this
// is the regime coalescing targets (think "popular images" in a
// multimedia store). For each (dim, batch size) the bench runs the same
// batch through the per-query path and the coalesced path and reports:
//
//   * simulated batch makespan (SimulateThroughput) and the coalescing
//     speedup: followers of a page group charge no I/O, so the busiest
//     disk's page count drops;
//   * wall-clock time of the two paths (best of reps, both serial, so
//     the ratio isolates the algorithmic effect of block kernels and
//     shared page expansions);
//   * the coalesced_reads / block_kernel_invocations counters;
//
// and verifies two hard invariants: batched results are bit-identical to
// per-query results, and per query, pages_read + coalesced_reads equals
// the pages the per-query path read (unbuffered engines). A buffered
// section repeats the largest configuration with a page buffer to show
// the two mechanisms compose, and a million-point section (d=16,
// n >= 1M via PARSIM_BENCH_MILLION_N, engines built with the parallel
// bulk-load path) re-verifies the invariants at data scale — skipped
// in --smoke.
//
// Output: a table on stdout and BENCH_batch_knn.json in the working
// directory; exit status 1 if any invariant fails. Scale with
// PARSIM_BENCH_N / PARSIM_BENCH_QUERIES, or pass --smoke for a
// seconds-fast CI variant.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "bench/microbench_common.h"
#include "src/core/near_optimal.h"
#include "src/eval/throughput.h"
#include "src/parallel/engine.h"
#include "src/util/random.h"
#include "src/util/stopwatch.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

using bench::BestOfMs;
using bench::EnvSize;
using bench::MakeHotSpotQueries;

std::unique_ptr<ParallelSearchEngine> MakeEngine(const PointSet& data,
                                                 std::size_t disks,
                                                 bool coalesced,
                                                 std::uint64_t buffer_pages,
                                                 unsigned workers = 0) {
  EngineOptions options;
  options.architecture = Architecture::kSharedTree;
  options.bulk_load = true;
  options.coalesced_batch = coalesced;
  options.buffer_pages_per_disk = buffer_pages;
  options.parallel_workers = workers;  // > 1: parallel build
  auto engine = std::make_unique<ParallelSearchEngine>(
      data.dim(), std::make_unique<NearOptimalDeclusterer>(data.dim(), disks),
      options);
  if (!engine->Build(data).ok()) return nullptr;
  return engine;
}

bool ResultsIdentical(const std::vector<KnnResult>& a,
                      const std::vector<KnnResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      if (a[i][j].id != b[i][j].id || a[i][j].distance != b[i][j].distance) {
        return false;
      }
    }
  }
  return true;
}

/// Per query on an unbuffered engine: the pages the batched execution
/// read plus the pages coalescing spared it must equal the pages the
/// per-query execution read. The saving is an accounting shift, never a
/// lost page.
bool PageInvariantHolds(const std::vector<QueryStats>& batched,
                        const std::vector<QueryStats>& perquery) {
  for (std::size_t i = 0; i < batched.size(); ++i) {
    const std::uint64_t batched_touched = batched[i].total_pages +
                                          batched[i].directory_pages +
                                          batched[i].coalesced_reads;
    const std::uint64_t perquery_touched =
        perquery[i].total_pages + perquery[i].directory_pages;
    if (batched_touched != perquery_touched) return false;
  }
  return true;
}

struct ConfigResult {
  std::size_t dim = 0;
  std::size_t batch = 0;
  double perquery_makespan_ms = 0.0;
  double batched_makespan_ms = 0.0;
  double makespan_speedup = 0.0;
  double perquery_wall_ms = 0.0;
  double batched_wall_ms = 0.0;
  double wall_speedup = 0.0;
  std::uint64_t perquery_pages = 0;
  std::uint64_t batched_pages = 0;
  std::uint64_t coalesced_reads = 0;
  std::uint64_t block_kernel_invocations = 0;
  bool results_identical = false;
  bool page_invariant = false;
};

}  // namespace

int Run(bool smoke) {
  const std::size_t n = EnvSize("PARSIM_BENCH_N", smoke ? 6000 : 40000);
  const std::size_t num_queries =
      EnvSize("PARSIM_BENCH_QUERIES", smoke ? 16 : 64);
  const std::size_t k = 10;
  const std::size_t disks = 8;
  const std::size_t hotspots = 4;
  const double jitter = 0.005;
  const int reps = smoke ? 1 : 5;
  const std::size_t dims[] = {8, 16};
  std::vector<std::size_t> batches = {1, 4, 16, 64};
  while (batches.back() > num_queries) batches.pop_back();

  std::printf("== microbench_batch_knn ==\n");
  std::printf("workload: n=%zu queries<=%zu (hot-spot, %zu centers) k=%zu "
              "disks=%zu%s\n",
              n, num_queries, hotspots, k, disks, smoke ? " [smoke]" : "");
  std::printf("hardware threads: %u\n", std::thread::hardware_concurrency());

  std::vector<ConfigResult> rows;
  bool all_ok = true;

  for (const std::size_t dim : dims) {
    const PointSet data = GenerateUniform(n, dim, 7001 + dim);
    const PointSet all_queries =
        MakeHotSpotQueries(data, num_queries, hotspots, jitter, 7103 + dim);

    for (const std::size_t batch : batches) {
      PointSet queries(dim);
      for (std::size_t i = 0; i < batch; ++i) queries.Add(all_queries[i]);

      const auto perquery = MakeEngine(data, disks, false, 0);
      const auto batched = MakeEngine(data, disks, true, 0);
      if (perquery == nullptr || batched == nullptr) {
        std::fprintf(stderr, "engine build failed\n");
        return 1;
      }

      // Simulated makespan and counters (deterministic on an unbuffered
      // engine, so one pass suffices).
      const ThroughputResult sim_pq = SimulateThroughput(*perquery, queries, k);
      const ThroughputResult sim_b = SimulateThroughput(*batched, queries, k);

      // Bit-identity and the page invariant, from one explicit pair of
      // batch runs with per-query stats.
      std::vector<QueryStats> stats_pq;
      std::vector<QueryStats> stats_b;
      const std::vector<KnnResult> res_pq =
          perquery->QueryBatch(queries, k, &stats_pq, 1);
      const std::vector<KnnResult> res_b =
          batched->QueryBatch(queries, k, &stats_b, 1);

      // Wall clock, both serial: the ratio isolates the algorithmic
      // effect (block kernels + shared expansions), not thread counts.
      const double wall_pq = BestOfMs(reps, [&] {
        (void)perquery->QueryBatch(queries, k, nullptr, 1);
      });
      const double wall_b = BestOfMs(reps, [&] {
        (void)batched->QueryBatch(queries, k, nullptr, 1);
      });

      ConfigResult row;
      row.dim = dim;
      row.batch = batch;
      row.perquery_makespan_ms = sim_pq.makespan_ms;
      row.batched_makespan_ms = sim_b.makespan_ms;
      row.makespan_speedup = sim_pq.makespan_ms / sim_b.makespan_ms;
      row.perquery_wall_ms = wall_pq;
      row.batched_wall_ms = wall_b;
      row.wall_speedup = wall_pq / wall_b;
      for (std::size_t d = 0; d < disks; ++d) {
        row.perquery_pages += sim_pq.pages_per_disk[d];
        row.batched_pages += sim_b.pages_per_disk[d];
      }
      row.coalesced_reads = sim_b.coalesced_reads;
      row.block_kernel_invocations = sim_b.block_kernel_invocations;
      row.results_identical = ResultsIdentical(res_pq, res_b);
      row.page_invariant = PageInvariantHolds(stats_b, stats_pq);
      all_ok = all_ok && row.results_identical && row.page_invariant;
      rows.push_back(row);

      std::printf(
          "  d=%2zu batch=%2zu: makespan %9.1f -> %9.1f ms (%5.2fx)  "
          "wall %7.2f -> %7.2f ms (%4.2fx)  coalesced=%llu  identical=%s "
          "invariant=%s\n",
          dim, batch, row.perquery_makespan_ms, row.batched_makespan_ms,
          row.makespan_speedup, row.perquery_wall_ms, row.batched_wall_ms,
          row.wall_speedup,
          static_cast<unsigned long long>(row.coalesced_reads),
          row.results_identical ? "yes" : "NO (BUG)",
          row.page_invariant ? "yes" : "NO (BUG)");
    }
  }

  // --- Buffered composition: coalescing on top of a page buffer --------
  // The buffer absorbs repeat reads ACROSS batches; coalescing removes
  // duplicate reads WITHIN a round. Results must stay bit-identical.
  const std::size_t bdim = 16;
  const std::size_t bbatch = batches.back();
  const std::uint64_t buffer_pages = 256;
  const PointSet bdata = GenerateUniform(n, bdim, 7001 + bdim);
  const PointSet ball =
      MakeHotSpotQueries(bdata, num_queries, hotspots, jitter, 7103 + bdim);
  PointSet bqueries(bdim);
  for (std::size_t i = 0; i < bbatch; ++i) bqueries.Add(ball[i]);
  const auto buf_pq = MakeEngine(bdata, disks, false, buffer_pages);
  const auto buf_b = MakeEngine(bdata, disks, true, buffer_pages);
  if (buf_pq == nullptr || buf_b == nullptr) {
    std::fprintf(stderr, "engine build failed (buffered)\n");
    return 1;
  }
  const ThroughputResult sim_buf_pq = SimulateThroughput(*buf_pq, bqueries, k);
  const ThroughputResult sim_buf_b = SimulateThroughput(*buf_b, bqueries, k);
  std::vector<QueryStats> bstats_pq;
  std::vector<QueryStats> bstats_b;
  const bool buffered_identical =
      ResultsIdentical(buf_pq->QueryBatch(bqueries, k, &bstats_pq, 1),
                       buf_b->QueryBatch(bqueries, k, &bstats_b, 1));
  all_ok = all_ok && buffered_identical;
  const double buffered_speedup =
      sim_buf_pq.makespan_ms / sim_buf_b.makespan_ms;
  std::printf(
      "  buffered (%llu pages/disk) d=%zu batch=%zu: makespan %9.1f -> "
      "%9.1f ms (%5.2fx)  coalesced=%llu  identical=%s\n",
      static_cast<unsigned long long>(buffer_pages), bdim, bbatch,
      sim_buf_pq.makespan_ms, sim_buf_b.makespan_ms, buffered_speedup,
      static_cast<unsigned long long>(sim_buf_b.coalesced_reads),
      buffered_identical ? "yes" : "NO (BUG)");

  // --- Million-point configuration (the parallel bulk-load unlock) -----
  // d=16 at n >= 1M, the scale the recall/LSH comparisons operate at.
  // Both engines opt into the parallel build (parallel_workers = 8):
  // Build fans the bulk load, leaf blocks included, and the leaf-route
  // fill over the pool, and the coalesced batch must stay bit-identical
  // to per-query on a tree three orders of magnitude past the smoke
  // sizes. Skipped in --smoke (seconds-scale lane).
  std::size_t mn = 0;
  double million_build_ms = 0.0;
  double million_makespan_speedup = 0.0;
  std::uint64_t million_coalesced = 0;
  bool million_identical = true;
  if (!smoke) {
    mn = EnvSize("PARSIM_BENCH_MILLION_N", 1000000);
    const std::size_t mdim = 16;
    const PointSet mdata = GenerateUniform(mn, mdim, 9001);
    const PointSet mqueries =
        MakeHotSpotQueries(mdata, bbatch, hotspots, jitter, 9103);
    Stopwatch pq_watch;
    const auto m_pq = MakeEngine(mdata, disks, false, 0, 8);
    const double pq_build_ms = pq_watch.ElapsedMillis();
    Stopwatch b_watch;
    const auto m_b = MakeEngine(mdata, disks, true, 0, 8);
    million_build_ms = b_watch.ElapsedMillis();
    if (m_pq == nullptr || m_b == nullptr) {
      std::fprintf(stderr, "engine build failed (million)\n");
      return 1;
    }
    const ThroughputResult sim_m_pq = SimulateThroughput(*m_pq, mqueries, k);
    const ThroughputResult sim_m_b = SimulateThroughput(*m_b, mqueries, k);
    std::vector<QueryStats> mstats_pq;
    std::vector<QueryStats> mstats_b;
    million_identical =
        ResultsIdentical(m_pq->QueryBatch(mqueries, k, &mstats_pq, 1),
                         m_b->QueryBatch(mqueries, k, &mstats_b, 1)) &&
        PageInvariantHolds(mstats_b, mstats_pq);
    all_ok = all_ok && million_identical;
    million_makespan_speedup = sim_m_pq.makespan_ms / sim_m_b.makespan_ms;
    million_coalesced = sim_m_b.coalesced_reads;
    std::printf(
        "  million (n=%zu d=%zu batch=%zu, parallel build): build %.0f / "
        "%.0f ms, makespan %9.1f -> %9.1f ms (%5.2fx)  coalesced=%llu  "
        "identical=%s\n",
        mn, mdim, bbatch, pq_build_ms, million_build_ms, sim_m_pq.makespan_ms,
        sim_m_b.makespan_ms, million_makespan_speedup,
        static_cast<unsigned long long>(million_coalesced),
        million_identical ? "yes" : "NO (BUG)");
  }

  // --- Acceptance: the headline configuration ---------------------------
  double headline_makespan = 0.0;
  double headline_wall = 0.0;
  for (const ConfigResult& row : rows) {
    if (row.dim == 16 && row.batch == batches.back()) {
      headline_makespan = row.makespan_speedup;
      headline_wall = row.wall_speedup;
    }
  }
  const bool makespan_ok = smoke || headline_makespan >= 1.5;
  const bool wall_ok = smoke || headline_wall > 1.0;
  all_ok = all_ok && makespan_ok && wall_ok;
  std::printf("\nheadline (d=16, batch=%zu): makespan speedup %.2fx "
              "(>= 1.5 required: %s), wall speedup %.2fx (> 1.0 required: "
              "%s)\n",
              batches.back(), headline_makespan, makespan_ok ? "yes" : "NO",
              headline_wall, wall_ok ? "yes" : "NO");

  // --- JSON -------------------------------------------------------------
  FILE* json = std::fopen("BENCH_batch_knn.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_batch_knn.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json,
               "  \"workload\": {\"points\": %zu, \"dim\": [8, 16], "
               "\"queries\": %zu, \"hotspots\": %zu, \"jitter\": %.3f, "
               "\"k\": %zu, \"disks\": %zu, \"smoke\": %s},\n",
               n, num_queries, hotspots, jitter, k, disks,
               smoke ? "true" : "false");
  std::fprintf(json, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(json, "  \"configs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ConfigResult& r = rows[i];
    std::fprintf(
        json,
        "    {\"dim\": %zu, \"batch\": %zu, "
        "\"perquery_makespan_ms\": %.3f, \"batched_makespan_ms\": %.3f, "
        "\"makespan_speedup\": %.3f, "
        "\"perquery_wall_ms\": %.3f, \"batched_wall_ms\": %.3f, "
        "\"wall_speedup\": %.3f, "
        "\"perquery_data_pages\": %llu, \"batched_data_pages\": %llu, "
        "\"coalesced_reads\": %llu, \"block_kernel_invocations\": %llu, "
        "\"results_identical\": %s, \"page_invariant\": %s}%s\n",
        r.dim, r.batch, r.perquery_makespan_ms, r.batched_makespan_ms,
        r.makespan_speedup, r.perquery_wall_ms, r.batched_wall_ms,
        r.wall_speedup, static_cast<unsigned long long>(r.perquery_pages),
        static_cast<unsigned long long>(r.batched_pages),
        static_cast<unsigned long long>(r.coalesced_reads),
        static_cast<unsigned long long>(r.block_kernel_invocations),
        r.results_identical ? "true" : "false",
        r.page_invariant ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json,
               "  \"buffered\": {\"buffer_pages_per_disk\": %llu, "
               "\"dim\": %zu, \"batch\": %zu, "
               "\"perquery_makespan_ms\": %.3f, "
               "\"batched_makespan_ms\": %.3f, \"makespan_speedup\": %.3f, "
               "\"coalesced_reads\": %llu, \"results_identical\": %s},\n",
               static_cast<unsigned long long>(buffer_pages), bdim, bbatch,
               sim_buf_pq.makespan_ms, sim_buf_b.makespan_ms,
               buffered_speedup,
               static_cast<unsigned long long>(sim_buf_b.coalesced_reads),
               buffered_identical ? "true" : "false");
  if (smoke) {
    std::fprintf(json, "  \"million\": null,\n");
  } else {
    std::fprintf(json,
                 "  \"million\": {\"n\": %zu, \"dim\": 16, \"batch\": %zu, "
                 "\"parallel_workers\": 8, \"build_ms\": %.0f, "
                 "\"makespan_speedup\": %.3f, \"coalesced_reads\": %llu, "
                 "\"results_identical\": %s},\n",
                 mn, bbatch, million_build_ms, million_makespan_speedup,
                 static_cast<unsigned long long>(million_coalesced),
                 million_identical ? "true" : "false");
  }
  std::fprintf(json,
               "  \"headline\": {\"dim\": 16, \"batch\": %zu, "
               "\"makespan_speedup\": %.3f, \"wall_speedup\": %.3f, "
               "\"all_checks_passed\": %s}\n",
               batches.back(), headline_makespan, headline_wall,
               all_ok ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote BENCH_batch_knn.json\n");

  return all_ok ? 0 : 1;
}

}  // namespace parsim

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return parsim::Run(smoke);
}
