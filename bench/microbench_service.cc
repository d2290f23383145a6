// Microbenchmark of the production query service front-end: open-loop
// arrival sweep (Poisson arrivals at a sustained QPS) over a mixed
// cheap/expensive workload, adaptive batch formation vs. the fixed
// round-expander baseline, admission-control backpressure, and
// deadline/budget early termination. Plain main() binary.
//
// Sections:
//   * identity   — queries served through the service (no deadlines) are
//                  bit-identical to ParallelSearchEngine::QueryBatch;
//   * capacity   — closed-loop Drain throughput of the mixed workload,
//                  used to calibrate the arrival sweep across machines;
//   * sweep      — for each offered rate (fractions of capacity) and
//                  each mode (adaptive, fixed), an open-loop run
//                  reporting per-class p50/p95/p99 latency, queueing
//                  delay, rejections, and expirations. Fixed mode only
//                  opens a new batch when the previous one fully drains,
//                  so cheap interactive queries convoy behind bulk
//                  scans; adaptive admission joins them into the next
//                  round. The headline check requires adaptive to beat
//                  fixed on interactive p50/p95/p99 at the highest rate;
//   * deadline   — per-query page budgets provably stop work early:
//                  budgeted runs expire with page counters strictly
//                  below the unbudgeted run of the same query.
//
// Output: a table on stdout and BENCH_service.json in the working
// directory; exit status 1 if any acceptance check fails. Scale with
// PARSIM_BENCH_N / PARSIM_BENCH_QUERIES, or pass --smoke for a
// seconds-fast CI variant (smoke skips the wall-clock latency
// assertions — CI machines are noisy — but still runs every section).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "bench/microbench_common.h"
#include "src/core/near_optimal.h"
#include "src/eval/open_loop.h"
#include "src/parallel/engine.h"
#include "src/service/query_service.h"
#include "src/util/random.h"
#include "src/util/stopwatch.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

using bench::EnvSize;

std::unique_ptr<ParallelSearchEngine> MakeEngine(const PointSet& data,
                                                 std::size_t disks) {
  EngineOptions options;
  options.architecture = Architecture::kSharedTree;
  options.bulk_load = true;
  options.coalesced_batch = true;
  auto engine = std::make_unique<ParallelSearchEngine>(
      data.dim(), std::make_unique<NearOptimalDeclusterer>(data.dim(), disks),
      options);
  if (!engine->Build(data).ok()) return nullptr;
  return engine;
}

ServiceOptions MakeServiceOptions(bool adaptive) {
  ServiceOptions options;
  options.adaptive_batch = adaptive;
  options.max_queue = 512;
  options.max_batch = 64;
  options.min_batch = 4;
  return options;
}

/// Closed-loop capacity of the mixed workload: submit everything, Drain,
/// and count queries per wall second. Calibrates the arrival sweep.
double MeasureCapacityQps(const ParallelSearchEngine& engine,
                          const PointSet& queries, std::size_t k,
                          std::size_t bulk_k, double bulk_fraction,
                          std::uint64_t seed) {
  QueryService service(engine, MakeServiceOptions(true));
  Rng rng(seed);
  std::vector<std::future<ServedResult>> futures(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ServiceQueryOptions opts;
    if (rng.NextBernoulli(bulk_fraction)) {
      opts.priority = QueryClass::kBulk;
      opts.k = bulk_k;
    } else {
      opts.k = k;
    }
    if (!service.Submit(queries[i], opts, &futures[i]).ok()) return 0.0;
  }
  Stopwatch watch;
  service.Drain();
  const double ms = watch.ElapsedMillis();
  for (auto& f : futures) (void)f.get();
  return ms > 0.0 ? static_cast<double>(queries.size()) / (ms / 1000.0) : 0.0;
}

struct SweepRow {
  double load_fraction = 0.0;
  double offered_qps = 0.0;
  bool adaptive = false;
  OpenLoopResult open_loop;
  std::uint64_t service_rounds = 0;
  double ema_prune_rate = 0.0;
};

}  // namespace

int Run(bool smoke) {
  const std::size_t n = EnvSize("PARSIM_BENCH_N", smoke ? 6000 : 30000);
  const std::size_t num_queries =
      EnvSize("PARSIM_BENCH_QUERIES", smoke ? 48 : 320);
  const std::size_t dim = 8;
  const std::size_t disks = 8;
  const std::size_t k = 10;
  const std::size_t bulk_k = 100;
  const double bulk_fraction = 0.25;

  std::printf("== microbench_service ==\n");
  std::printf(
      "workload: n=%zu queries=%zu dim=%zu disks=%zu k=%zu bulk_k=%zu "
      "bulk_fraction=%.2f%s\n",
      n, num_queries, dim, disks, k, bulk_k, bulk_fraction,
      smoke ? " [smoke]" : "");
  std::printf("hardware threads: %u\n", std::thread::hardware_concurrency());

  const PointSet data = GenerateUniform(n, dim, 11001);
  const PointSet queries = GenerateUniformQueries(num_queries, dim, 11003);
  const auto engine = MakeEngine(data, disks);
  if (engine == nullptr) {
    std::fprintf(stderr, "engine build failed\n");
    return 1;
  }
  bool all_ok = true;

  // --- Identity: served results == QueryBatch when no deadline fires ---
  bool identity_ok = true;
  {
    const std::vector<KnnResult> batch = engine->QueryBatch(queries, k);
    QueryService service(*engine, MakeServiceOptions(true));
    std::vector<std::future<ServedResult>> futures(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      if (!service.Submit(queries[i], {}, &futures[i]).ok()) {
        identity_ok = false;
      }
    }
    service.Drain();
    for (std::size_t q = 0; q < queries.size() && identity_ok; ++q) {
      const ServedResult served = futures[q].get();
      if (!served.status.ok() || served.neighbors.size() != batch[q].size()) {
        identity_ok = false;
        break;
      }
      for (std::size_t i = 0; i < batch[q].size(); ++i) {
        if (served.neighbors[i].id != batch[q][i].id ||
            served.neighbors[i].distance != batch[q][i].distance) {
          identity_ok = false;
          break;
        }
      }
    }
    std::printf("identity vs QueryBatch: %s\n",
                identity_ok ? "bit-identical" : "MISMATCH (BUG)");
    all_ok = all_ok && identity_ok;
  }

  // --- Capacity calibration ---------------------------------------------
  const double capacity_qps =
      MeasureCapacityQps(*engine, queries, k, bulk_k, bulk_fraction, 11007);
  if (capacity_qps <= 0.0) {
    std::fprintf(stderr, "capacity measurement failed\n");
    return 1;
  }
  std::printf("closed-loop capacity (mixed workload): %.0f qps\n",
              capacity_qps);

  // --- Open-loop arrival sweep ------------------------------------------
  std::vector<double> load_fractions =
      smoke ? std::vector<double>{0.5} : std::vector<double>{0.25, 0.5, 0.8};
  std::vector<SweepRow> rows;
  for (const double load : load_fractions) {
    for (const bool adaptive : {true, false}) {
      QueryService service(*engine, MakeServiceOptions(adaptive));
      service.Start();
      OpenLoopOptions olo;
      olo.arrival_qps = capacity_qps * load;
      olo.num_queries = num_queries;
      olo.k = k;
      olo.bulk_k = bulk_k;
      olo.bulk_fraction = bulk_fraction;
      olo.seed = 11009;  // same arrival schedule for both modes
      SweepRow row;
      row.load_fraction = load;
      row.offered_qps = olo.arrival_qps;
      row.adaptive = adaptive;
      row.open_loop = RunOpenLoop(service, queries, olo);
      service.Stop();
      const ServiceMetrics metrics = service.metrics();
      row.service_rounds = metrics.rounds;
      row.ema_prune_rate = metrics.ema_prune_rate;
      rows.push_back(row);
      const OpenLoopResult& r = row.open_loop;
      std::printf(
          "  load=%.2f (%6.0f qps) %-8s: interactive p50/p95/p99 = "
          "%7.2f/%7.2f/%7.2f ms  bulk p95 = %8.2f ms  queue %7.2f ms  "
          "rejected %zu\n",
          load, row.offered_qps, adaptive ? "adaptive" : "fixed",
          r.interactive.p50_ms, r.interactive.p95_ms, r.interactive.p99_ms,
          r.bulk.p95_ms, r.mean_queue_ms, r.rejected);
    }
  }

  // --- Deadline / budget early termination ------------------------------
  const std::size_t deadline_queries = std::min<std::size_t>(8, num_queries);
  std::size_t expired_count = 0;
  bool pages_strictly_below = true;
  std::uint64_t pages_unbudgeted_sum = 0;
  std::uint64_t pages_budgeted_sum = 0;
  for (std::size_t q = 0; q < deadline_queries; ++q) {
    auto run_one = [&](std::uint64_t max_pages) {
      QueryService service(*engine, MakeServiceOptions(true));
      ServiceQueryOptions opts;
      opts.k = bulk_k;  // expensive queries, so budgets genuinely bite
      opts.max_pages = max_pages;
      std::future<ServedResult> future;
      if (!service.Submit(queries[q], opts, &future).ok()) {
        all_ok = false;
      }
      service.Drain();
      return future.get();
    };
    const ServedResult full = run_one(0);
    const ServedResult budgeted = run_one(12);
    const std::uint64_t full_pages =
        full.stats.total_pages + full.stats.directory_pages;
    const std::uint64_t budgeted_pages =
        budgeted.stats.total_pages + budgeted.stats.directory_pages;
    pages_unbudgeted_sum += full_pages;
    pages_budgeted_sum += budgeted_pages;
    if (budgeted.status.code() == StatusCode::kDeadlineExceeded) {
      ++expired_count;
    }
    if (budgeted_pages >= full_pages) pages_strictly_below = false;
  }
  const bool deadline_ok =
      expired_count == deadline_queries && pages_strictly_below;
  std::printf(
      "deadline: %zu/%zu budgeted queries expired, pages %llu -> %llu "
      "(strictly below per query: %s)\n",
      expired_count, deadline_queries,
      static_cast<unsigned long long>(pages_unbudgeted_sum),
      static_cast<unsigned long long>(pages_budgeted_sum),
      pages_strictly_below ? "yes" : "NO (BUG)");
  all_ok = all_ok && deadline_ok;

  // --- Acceptance: adaptive beats fixed at the highest offered rate -----
  const SweepRow* top_adaptive = nullptr;
  const SweepRow* top_fixed = nullptr;
  for (const SweepRow& row : rows) {
    if (row.load_fraction == load_fractions.back()) {
      (row.adaptive ? top_adaptive : top_fixed) = &row;
    }
  }
  bool sweep_ok = true;
  if (top_adaptive != nullptr && top_fixed != nullptr) {
    const LatencyProfile& a = top_adaptive->open_loop.interactive;
    const LatencyProfile& f = top_fixed->open_loop.interactive;
    sweep_ok = a.p50_ms < f.p50_ms && a.p95_ms < f.p95_ms &&
               a.p99_ms < f.p99_ms;
    std::printf(
        "headline (load=%.2f, interactive): adaptive %7.2f/%7.2f/%7.2f ms "
        "vs fixed %7.2f/%7.2f/%7.2f ms -> adaptive wins p50/p95/p99: %s\n",
        load_fractions.back(), a.p50_ms, a.p95_ms, a.p99_ms, f.p50_ms,
        f.p95_ms, f.p99_ms, sweep_ok ? "yes" : "NO");
  }
  if (!smoke) all_ok = all_ok && sweep_ok;

  // --- JSON -------------------------------------------------------------
  FILE* json = std::fopen("BENCH_service.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_service.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json,
               "  \"workload\": {\"points\": %zu, \"dim\": %zu, "
               "\"queries\": %zu, \"k\": %zu, \"bulk_k\": %zu, "
               "\"bulk_fraction\": %.2f, \"disks\": %zu, \"smoke\": %s},\n",
               n, dim, num_queries, k, bulk_k, bulk_fraction, disks,
               smoke ? "true" : "false");
  std::fprintf(json, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(json, "  \"capacity_qps\": %.1f,\n", capacity_qps);
  std::fprintf(json, "  \"sweep\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const SweepRow& row = rows[i];
    const OpenLoopResult& r = row.open_loop;
    std::fprintf(
        json,
        "    {\"load_fraction\": %.2f, \"offered_qps\": %.1f, "
        "\"mode\": \"%s\", \"accepted\": %zu, \"rejected\": %zu, "
        "\"expired\": %zu, \"achieved_qps\": %.1f, "
        "\"mean_queue_ms\": %.3f, \"mean_rounds\": %.2f, "
        "\"service_rounds\": %llu, \"ema_prune_rate\": %.3f, "
        "\"interactive\": {\"count\": %zu, \"p50_ms\": %.3f, "
        "\"p95_ms\": %.3f, \"p99_ms\": %.3f, \"max_ms\": %.3f}, "
        "\"bulk\": {\"count\": %zu, \"p50_ms\": %.3f, \"p95_ms\": %.3f, "
        "\"p99_ms\": %.3f, \"max_ms\": %.3f}}%s\n",
        row.load_fraction, row.offered_qps,
        row.adaptive ? "adaptive" : "fixed", r.accepted, r.rejected,
        r.expired, r.achieved_qps, r.mean_queue_ms, r.mean_rounds,
        static_cast<unsigned long long>(row.service_rounds),
        row.ema_prune_rate, r.interactive.count, r.interactive.p50_ms,
        r.interactive.p95_ms, r.interactive.p99_ms, r.interactive.max_ms,
        r.bulk.count, r.bulk.p50_ms, r.bulk.p95_ms, r.bulk.p99_ms,
        r.bulk.max_ms, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json,
               "  \"deadline\": {\"queries\": %zu, \"expired\": %zu, "
               "\"pages_unbudgeted\": %llu, \"pages_budgeted\": %llu, "
               "\"strictly_below\": %s},\n",
               deadline_queries, expired_count,
               static_cast<unsigned long long>(pages_unbudgeted_sum),
               static_cast<unsigned long long>(pages_budgeted_sum),
               pages_strictly_below ? "true" : "false");
  std::fprintf(json,
               "  \"identity\": {\"bit_identical_to_query_batch\": %s},\n",
               identity_ok ? "true" : "false");
  std::fprintf(json,
               "  \"headline\": {\"adaptive_beats_fixed_interactive\": %s, "
               "\"all_checks_passed\": %s}\n",
               sweep_ok ? "true" : "false", all_ok ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote BENCH_service.json\n");

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
