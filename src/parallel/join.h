// All-pairs ε-similarity self-join over the shared X-tree: every
// unordered pair of stored points within distance epsilon of each other
// (inclusive, matching BallQuery), as one bulk workload instead of n
// ball queries.
//
// The join runs in four deterministic stages (see DESIGN.md "All-pairs
// similarity join"):
//
//   1. Enumerate: descend the directory once (each directory page read
//      and charged once to the query host) and list every non-empty
//      leaf with its MBR — taken from the parent's entry, so no data
//      page is touched yet.
//   2. Prune: a leaf pair (i, j), i <= j, survives iff the rect-rect
//      MINDIST of their MBRs (MinDistComparable, comparable scale) is
//      at most ToComparable(epsilon). A parent-level prefilter runs
//      first — parent MBRs contain their children's, so a pruned parent
//      pair losslessly prunes all its leaf pairs without testing them.
//      One pool task per level-1 parent p tests the parents q >= p into
//      its own survivor list; the lists are appended in parent order
//      and each block row is sorted, rows spread over the pool.
//   3. Fetch: each distinct leaf involved in any surviving pair is read
//      ONCE, in ascending node-id order (the leader pays the faulted /
//      buffered read, as in the coalesced batch scheduler); every
//      additional pair that shares the leaf books coalesced_reads
//      instead of a second read.
//   4. Sweep: pairs are grouped into block rows — row i owns every pair
//      (i, j) with j >= i (Özkural & Aykanat's 1-D owner-computes
//      decomposition, each pair computed exactly once) — and the rows
//      fan out over the thread pool, ordered round-robin across the
//      owning disks so the declustered load stays even. On a quantized
//      tree the sweep runs over per-GROUP codebooks: the sorted leaf
//      list is cut into contiguous runs of bounded row count (leaf
//      order follows the bulk-load space-filling pack, so each group
//      covers a compact region and its SQ8 lattice stays tight), every
//      group's rows are gathered and coded once up front, and an
//      owner's consecutive candidate leaves within one group merge into
//      a single kernel run. In an own-group run each owner row sweeps
//      only the rows past its own (its tail); foreign-group runs code
//      the owner's rows on that group's lattice once and reuse them for
//      every pair in the group. Each
//      candidate run goes through a fused prune kernel (Sq8ManyUnder:
//      reduction + fixed-epsilon cutoff test in-register, survivor
//      indices out) followed by an exact float re-rank of survivors;
//      a per-row MINDIST test against the run's merged MBR skips rows
//      whose base bound already clears the threshold. Non-quantized
//      trees take the exact block sweeps (SweepLeafBlockSelf / Many).
//
// Merge: counters are summed in row order; the pairs are counted and
// scattered in row order into equal-width buckets of the smaller id,
// and each bucket is sorted as its own pool task. Every unordered pair
// is emitted once, so the sort order is total and the buckets in bucket
// order are the one sorted list.
//
// Determinism: the emitted pair list is sorted by (a, b) and every
// counter is a sum of per-row integer contributions merged in row order,
// so results AND stats are invariant across thread counts.

#ifndef PARSIM_SRC_PARALLEL_JOIN_H_
#define PARSIM_SRC_PARALLEL_JOIN_H_

#include <cstdint>
#include <vector>

#include "src/geometry/metric.h"
#include "src/geometry/point.h"
#include "src/index/tree_base.h"
#include "src/io/cost_capture.h"
#include "src/parallel/query_stats.h"
#include "src/util/phase_timer.h"
#include "src/util/thread_pool.h"

namespace parsim {

/// One emitted join pair: a < b always (ids are normalized), distance is
/// the real (not comparable-scale) distance, <= epsilon.
struct JoinPair {
  PointId a = kInvalidPointId;
  PointId b = kInvalidPointId;
  double distance = 0.0;

  friend bool operator==(const JoinPair& x, const JoinPair& y) {
    return x.a == y.a && x.b == y.b && x.distance == y.distance;
  }
  friend bool operator<(const JoinPair& x, const JoinPair& y) {
    if (x.a != y.a) return x.a < y.a;
    if (x.b != y.b) return x.b < y.b;
    return x.distance < y.distance;
  }
};

/// Per-join knobs (the engine's EngineOptions supplies everything else:
/// metric, quantization, buffering, faults).
struct JoinOptions {
  /// Worker threads for the pooled stages (block-pair prune, codebook
  /// builds, row sweep, bucket sorts); 0 = the engine's
  /// parallel_workers, 1 = serial. Results and stats are identical at
  /// any value.
  unsigned threads = 0;
  /// Attribute wall-clock time to phases for this join
  /// (JoinStats::phases). This flag alone decides: the engine's
  /// EngineOptions::profile_phases governs Query and QueryBatch only, so
  /// a profiled engine still runs an unprofiled join unless this is set.
  bool profile_phases = false;
};

/// What the join did: a QueryStats — the work counters and the pages,
/// times and balance ParallelSearchEngine::StatsFromAccumulator derives
/// from the join's cost accumulator, exactly like a query's — plus the
/// join's block-pair and pair counts. distance_computations is the float
/// kernel evaluations (all candidate pairs on the exact path, re-ranked
/// survivors on the quantized path). All counters are thread-count
/// invariant.
///
/// Page conservation under coalescing: every swept pair touches its one
/// (self) or two (cross) blocks, so on a healthy, unbuffered engine
///     total_pages + buffer_hit_pages + coalesced_reads
///         == sum over swept pairs of their blocks' pages,
/// and total_pages + buffer_hit_pages counts each distinct leaf once.
/// coalesced_reads are the reads spared because an earlier pair of this
/// join already paid for the block's fetch (leader pays). phases is zero
/// unless JoinOptions::profile_phases.
struct JoinStats : QueryStats {
  /// Non-empty leaf blocks of the tree (== the number of self block
  /// pairs, every one of which is swept: MINDIST(i,i) = 0).
  std::uint64_t leaf_blocks = 0;
  /// All unordered leaf-block pairs incl. self: L * (L + 1) / 2.
  std::uint64_t block_pairs_considered = 0;
  /// Pairs whose MBR MINDIST exceeded ToComparable(epsilon) — skipped
  /// without touching any page (whether individually tested or killed
  /// wholesale by the parent-level prefilter).
  std::uint64_t block_pairs_pruned = 0;
  /// Pairs actually swept: considered - pruned.
  std::uint64_t block_pairs_swept = 0;
  /// Point pairs emitted (each exactly once, a < b).
  std::uint64_t pairs_emitted = 0;
};

/// A self-join run plus its stats. `pairs` is sorted by (a, b).
struct JoinResult {
  std::vector<JoinPair> pairs;
  JoinStats stats;
};

/// The join machinery over one shared tree. The engine's SelfJoin wraps
/// this with its accumulator/stats plumbing; tests can also drive it
/// directly against a TreeBase.
class SimilarityJoin {
 public:
  /// `tree` must outlive the join. Its installed node-disk resolver
  /// decides where charges land (the shared-tree engine routes leaves to
  /// their declustered disks and directory pages to the host).
  SimilarityJoin(const TreeBase& tree, const Metric& metric);

  /// Runs the join. Simulated charges and work counters (directory
  /// reads, leader-paid leaf fetches, coalesced bookings, sweep CPU and
  /// prune counts) land in `acc`; the block-pair and pair counts in
  /// `*stats` (the caller derives times and counters from `acc`).
  /// `pool` may be nullptr (serial). `phases` may be nullptr (no
  /// wall-clock attribution). Returns the sorted pair list.
  std::vector<JoinPair> Run(double epsilon, QueryCostAccumulator* acc,
                            ThreadPool* pool, PhaseAccumulator* phases,
                            JoinStats* stats) const;

 private:
  const TreeBase& tree_;
  Metric metric_;
};

/// O(n^2) linear-scan oracle: every unordered pair of `points` (ids are
/// positions) within `epsilon` (inclusive), sorted by (a, b). The test
/// reference for SelfJoin.
std::vector<JoinPair> BruteForceSelfJoin(const PointSet& points,
                                         double epsilon,
                                         const Metric& metric = Metric());

}  // namespace parsim

#endif  // PARSIM_SRC_PARALLEL_JOIN_H_
