// Ground-truth recall harness for the approximate search tier.
//
// The standing contract every approximate change is judged against (see
// DESIGN.md "Approximate tier & recall harness"): exact ground truth is
// computed by the linear-scan oracle, so it is independent of every
// index code path under test, and any result set is then scored for
// recall@k against it.
//
// The scorer is distance-tie tolerant (the calc_recall subtlety from
// pbbsbench): a returned neighbor counts as a hit iff its distance is
// <= the ground truth's k-th distance. When several points tie at the
// k-th position, any valid top-k set — not just the oracle's
// tie-breaking choice — scores 1.0; id-set intersection would punish a
// correct answer for picking the "wrong" equidistant point. Distances
// on both sides come from the same exact float kernels (approximate
// search re-ranks exactly; only pruning is relaxed), so ties compare
// bit-identically and the tolerance needs no epsilon.

#ifndef PARSIM_SRC_EVAL_RECALL_H_
#define PARSIM_SRC_EVAL_RECALL_H_

#include <cstdint>
#include <vector>

#include "src/geometry/metric.h"
#include "src/geometry/point.h"
#include "src/index/knn.h"
#include "src/util/thread_pool.h"

namespace parsim {

/// Aggregate recall of a result batch (see ScoreRecall).
struct RecallStats {
  /// Mean per-query recall@k (the curve's y-axis). 1.0 on an empty
  /// batch — the exact path's anchor convention.
  double mean = 1.0;
  /// Worst per-query recall in the batch.
  double min = 1.0;
  /// Summed hits and wanted counts over the batch (wanted is
  /// min(k, truth size) per query, so k > n degenerates gracefully).
  std::uint64_t hits = 0;
  std::uint64_t wanted = 0;
  std::size_t queries = 0;
};

/// Exact k-NN ground truth for every query, via the brute-force oracle
/// (BruteForceKnn — deliberately NOT the tree path, so the truth is
/// independent of the machinery under test). `pool` parallelizes over
/// queries when non-null; results are identical either way.
std::vector<KnnResult> ComputeGroundTruth(const PointSet& data,
                                          const PointSet& queries,
                                          std::size_t k,
                                          const Metric& metric = Metric(),
                                          ThreadPool* pool = nullptr);

/// Recall@k of one result list against its ground truth, tie-tolerant:
/// hits are returned entries (first k) with distance <= the truth's
/// k-th distance; the denominator is min(k, truth.size()). Empty truth
/// scores 1.0 (nothing to find). Both lists must be ascending by
/// distance (the invariant every query path already guarantees).
double RecallAtK(const KnnResult& result, const KnnResult& truth,
                 std::size_t k);

/// Batch aggregate of RecallAtK (results and truths are parallel
/// arrays, scored pairwise).
RecallStats ScoreRecall(const std::vector<KnnResult>& results,
                        const std::vector<KnnResult>& truths, std::size_t k);

}  // namespace parsim

#endif  // PARSIM_SRC_EVAL_RECALL_H_
