// Multi-query throughput simulation — the paper's future work
// ("declustering techniques which optimize the throughput instead of
// the search time for a single query", Section 6).
//
// Model: a closed system with a batch of outstanding queries. Every
// disk serves its page requests from all queries back to back, so the
// batch completes when the most-loaded disk finishes:
//
//   makespan  = host work + max over disks (sum over queries of work)
//   throughput = |queries| / makespan
//
// Single-query latency rewards per-query balance (the paper's
// optimization target); batch throughput rewards aggregate balance,
// which even round robin achieves — quantifying why the two goals
// differ.

#ifndef PARSIM_SRC_EVAL_THROUGHPUT_H_
#define PARSIM_SRC_EVAL_THROUGHPUT_H_

#include <cstdint>
#include <vector>

#include "src/io/counters.h"
#include "src/parallel/engine.h"

namespace parsim {

/// Aggregate result of a batch-throughput simulation. The work counters
/// are the per-query counters summed over the batch.
struct ThroughputResult : Counters {
  /// Simulated time until the whole batch completes.
  double makespan_ms = 0.0;
  /// Queries per simulated second.
  double throughput_qps = 0.0;
  /// Mean over disks of (disk busy time / makespan); 1.0 = no idling.
  double avg_disk_utilization = 0.0;
  /// Average single-query latency under the paper's max rule, for
  /// contrast with the batch view.
  double avg_latency_ms = 0.0;
  std::size_t num_queries = 0;
  /// Aggregate pages served per disk over the batch.
  std::vector<std::uint64_t> pages_per_disk;

  /// Batch makespan at healthy rates: same page distribution, but no
  /// slow-disk scaling and no retry penalties. makespan_ms divided by
  /// healthy_makespan_ms is the batch degradation factor (equal bit for
  /// bit on a healthy disk array).
  double healthy_makespan_ms = 0.0;
  /// Queries that read a replica, retried a failed disk, or lost pages.
  std::size_t degraded_queries = 0;

  /// Wall-clock phase breakdown of the batch execution (summed over all
  /// workers; all zero unless the engine runs with profile_phases).
  /// Real time — never compare against makespan_ms.
  PhaseBreakdown phases;

  /// Real (measured) wall-clock execution of the batch on this machine,
  /// alongside the simulated makespan above.
  double wall_ms = 0.0;
  /// Queries per real second.
  double wall_qps = 0.0;
  /// Worker threads the batch actually executed on (1 = serial), as
  /// reported by QueryBatch — not the requested count, so a buffered
  /// engine in deterministic mode (which serializes the batch) reports 1
  /// whatever was asked for.
  unsigned execution_threads = 1;
};

/// Runs every query as a k-NN search and aggregates the per-disk work
/// into the closed-batch model above.
///
/// `execution_threads` controls the *real* execution only: > 1 fans the
/// batch out over the engine's worker pool (QueryBatch) and reports
/// genuine wall-clock throughput in wall_ms / wall_qps (0 or 1 = serial
/// execution). On an unbuffered engine every simulated number stays
/// bit-identical to the serial run; on a buffered engine the aggregate
/// page totals (hits + misses per disk) stay exact but their hit/miss
/// split — and thus the simulated makespan — can vary with thread
/// interleaving, unless options().deterministic_batch serializes the
/// batch.
ThroughputResult SimulateThroughput(const ParallelSearchEngine& engine,
                                    const PointSet& queries, std::size_t k,
                                    unsigned execution_threads = 0);

}  // namespace parsim

#endif  // PARSIM_SRC_EVAL_THROUGHPUT_H_
