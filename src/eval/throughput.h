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

#include "src/parallel/engine.h"

namespace parsim {

/// Aggregate result of a batch-throughput simulation.
struct ThroughputResult {
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

  // Fault / degraded-read aggregates. All zero (and healthy_makespan_ms
  // == makespan_ms bit for bit) on a healthy disk array.
  /// Batch makespan at healthy rates: same page distribution, but no
  /// slow-disk scaling and no retry penalties. makespan_ms divided by
  /// healthy_makespan_ms is the batch degradation factor.
  double healthy_makespan_ms = 0.0;
  /// Queries that read a replica, retried a failed disk, or lost pages.
  std::size_t degraded_queries = 0;
  /// Pages served by replicas on behalf of failed primaries.
  std::uint64_t replica_pages = 0;
  /// Timed-out read attempts against failed primaries (bounded retry).
  std::uint64_t failed_read_attempts = 0;
  /// Pages no healthy copy could serve (failed disk, no replica).
  std::uint64_t unavailable_pages = 0;

  // Batched-execution aggregates. Zero outside the coalesced path.
  /// Page reads the batch avoided by cross-query coalescing (summed
  /// per-query coalesced_reads); every one of them is a page the
  /// per-query execution would have charged to a disk.
  std::uint64_t coalesced_reads = 0;
  /// Many-to-many kernel participations (summed per-query counts).
  std::uint64_t block_kernel_invocations = 0;

  // Quantized-sweep aggregates (summed per-query counts). All zero
  // unless the engine runs with quantized_leaf_blocks.
  /// Leaf candidates the SQ8 lower bound eliminated before exact work
  /// (always base_pruned + sq8_pruned).
  std::uint64_t quantized_pruned = 0;
  /// ... of which: killed wholesale by the per-block query bound.
  std::uint64_t base_pruned = 0;
  /// ... of which: killed by the SQ8 reduction.
  std::uint64_t sq8_pruned = 0;
  /// Leaf candidates re-ranked through the exact float kernels.
  std::uint64_t reranked = 0;
  /// Bytes leaf sweeps streamed (bookkeeping; not part of makespan).
  std::uint64_t leaf_bytes_scanned = 0;

  // Frontier aggregates (summed per-query counts; HS searches only).
  std::uint64_t frontier_pushes = 0;
  std::uint64_t frontier_pops = 0;
  std::uint64_t cutoff_skipped_nodes = 0;

  // Approximate-tier aggregates (zero unless EngineOptions::approx is
  // enabled with epsilon > 0; see src/parallel/engine.h).
  std::uint64_t approx_skipped_nodes = 0;
  std::uint64_t approx_pruned_exactly = 0;

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
