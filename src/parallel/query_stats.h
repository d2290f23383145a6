// Per-operation accounting of the parallel engine: the work counters plus
// the pages, simulated times and balance that
// ParallelSearchEngine::StatsFromAccumulator derives from one
// operation's captured charges. Queries report it as is; the self-join's
// JoinStats extends it with the join's own counts.

#ifndef PARSIM_SRC_PARALLEL_QUERY_STATS_H_
#define PARSIM_SRC_PARALLEL_QUERY_STATS_H_

#include <cstdint>
#include <vector>

#include "src/io/counters.h"
#include "src/util/phase_timer.h"

namespace parsim {

/// Per-query accounting: the work counters (summed over the query
/// host and every disk) plus the simulated times and page totals derived
/// from the per-disk charges.
struct QueryStats : Counters {
  /// Simulated elapsed time under the paper's rule: host directory work
  /// plus the slowest disk's data-page work.
  double parallel_ms = 0.0;
  /// Simulated elapsed time if one disk had served every access.
  double sum_ms = 0.0;
  /// Pages read by the busiest disk (the paper's raw metric).
  std::uint64_t max_pages = 0;
  /// Pages read across all disks: data pages, plus under kFederatedTrees
  /// each disk's directory pages, which directory_pages counts as well.
  /// On kSharedTree, per query, total_pages + directory_pages +
  /// buffer_hit_pages + coalesced_reads equals the pages the
  /// single-query path would have touched.
  std::uint64_t total_pages = 0;
  /// Directory pages read by the query host (kSharedTree) or summed
  /// over disks (kFederatedTrees).
  std::uint64_t directory_pages = 0;
  /// avg/max page load over disks; 1.0 = perfectly even.
  double balance = 1.0;
  /// Pages read per disk.
  std::vector<std::uint64_t> pages_per_disk;

  /// True when the query felt any fault: a replica read, a retry, an
  /// unavailable page, or slow-disk time scaling. False (with
  /// healthy_parallel_ms == parallel_ms bit for bit) on a healthy array.
  bool degraded = false;
  /// The makespan this query would have had at healthy rates: same page
  /// distribution, but no slow-disk scaling and no retry penalties.
  /// parallel_ms / healthy_parallel_ms is the degradation factor.
  double healthy_parallel_ms = 0.0;

  /// Wall-clock time by phase (all zero unless the engine was built with
  /// profile_phases). Real time, not simulated time — never compare it
  /// against parallel_ms.
  PhaseBreakdown phases;
};

}  // namespace parsim

#endif  // PARSIM_SRC_PARALLEL_QUERY_STATS_H_
