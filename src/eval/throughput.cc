#include "src/eval/throughput.h"

#include <algorithm>

#include "src/util/check.h"
#include "src/util/stopwatch.h"

namespace parsim {

ThroughputResult SimulateThroughput(const ParallelSearchEngine& engine,
                                    const PointSet& queries, std::size_t k,
                                    unsigned execution_threads) {
  PARSIM_CHECK(queries.dim() == engine.dim());
  PARSIM_CHECK(!queries.empty());
  const std::size_t disks = engine.num_disks();
  const double page_ms =
      engine.options().disk_parameters.PageAccessMs();

  ThroughputResult out;
  // Execute the batch (on the pool when execution_threads > 1) and time
  // it. QueryBatch reports the worker count it actually ran on — e.g. 1
  // when a buffered engine in deterministic mode serializes the batch —
  // so wall_qps is never attributed to threads that never executed.
  Stopwatch watch;
  std::vector<QueryStats> per_query;
  unsigned effective_threads = 1;
  (void)engine.QueryBatch(queries, k, &per_query,
                          execution_threads == 0 ? 1 : execution_threads,
                          &effective_threads, &out.phases);
  const double wall_ms = watch.ElapsedMillis();

  out.num_queries = queries.size();
  out.pages_per_disk.assign(disks, 0);
  out.execution_threads = effective_threads;
  out.wall_ms = wall_ms;
  out.wall_qps = wall_ms > 0.0
                     ? static_cast<double>(queries.size()) / (wall_ms / 1000.0)
                     : 0.0;
  double host_ms_total = 0.0;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const QueryStats& stats = per_query[qi];
    out.avg_latency_ms += stats.parallel_ms;
    if (stats.degraded) ++out.degraded_queries;
    out += stats;
    // Host share of this query's time (directory work on the shared
    // architecture; zero for federated ones). Derived from the healthy
    // figure so fault penalties never leak into the host share.
    double disks_only = 0.0;
    for (std::size_t d = 0; d < disks; ++d) {
      out.pages_per_disk[d] += stats.pages_per_disk[d];
      disks_only = std::max(
          disks_only, static_cast<double>(stats.pages_per_disk[d]) * page_ms);
    }
    host_ms_total += std::max(0.0, stats.healthy_parallel_ms - disks_only);
  }
  out.avg_latency_ms /= static_cast<double>(queries.size());

  // Per-disk busy time: actual (scaled by the disk's health) and
  // healthy. Identical bit for bit when every disk is healthy.
  double busiest_ms = 0.0;
  double busiest_healthy_ms = 0.0;
  double busy_sum_ms = 0.0;
  for (std::size_t d = 0; d < disks; ++d) {
    const double healthy_disk_ms =
        static_cast<double>(out.pages_per_disk[d]) * page_ms;
    const double disk_ms =
        healthy_disk_ms *
        engine.disks().disk(static_cast<DiskId>(d)).time_scale();
    busiest_ms = std::max(busiest_ms, disk_ms);
    busiest_healthy_ms = std::max(busiest_healthy_ms, healthy_disk_ms);
    busy_sum_ms += disk_ms;
  }
  // Bounded-retry detection cost: timed-out attempts serialize on the
  // failover path, so they extend the batch additively.
  const double retry_ms =
      static_cast<double>(out.failed_read_attempts) *
      engine.options().disk_parameters.failover_timeout_ms;
  out.makespan_ms = host_ms_total + busiest_ms + retry_ms;
  out.healthy_makespan_ms = host_ms_total + busiest_healthy_ms;
  PARSIM_CHECK(out.makespan_ms > 0.0);
  out.throughput_qps =
      static_cast<double>(queries.size()) / (out.makespan_ms / 1000.0);
  out.avg_disk_utilization =
      busiest_ms > 0.0
          ? busy_sum_ms / (static_cast<double>(disks) * busiest_ms)
          : 1.0;
  return out;
}

}  // namespace parsim
