// k-nearest-neighbor search algorithms over the tree family:
//
//   * HsKnn  — incremental best-first search of Hjaltason & Samet
//              [HS 95]: a priority queue ordered by MINDIST; optimal in
//              the number of pages read. The default in the engine; it
//              drives one HsSearch (src/index/hs_search.h) to the end.
//   * RkvKnn — depth-first branch-and-bound of Roussopoulos, Kelley &
//              Vincent [RKV 95] with MINDIST ordering and MINMAXDIST
//              pruning; the algorithm the paper used on the X-tree.
//   * BruteForceKnn — exact linear scan; the test oracle.

#ifndef PARSIM_SRC_INDEX_KNN_H_
#define PARSIM_SRC_INDEX_KNN_H_

#include <vector>

#include "src/geometry/metric.h"
#include "src/geometry/point.h"
#include "src/index/tree_base.h"

namespace parsim {

/// One answer of a k-NN query.
struct Neighbor {
  PointId id = kInvalidPointId;
  /// Real (not squared) distance.
  double distance = 0.0;

  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.id == b.id && a.distance == b.distance;
  }
  /// The answer order of every k-NN and ball result: ascending distance,
  /// ties by ascending id.
  friend bool operator<(const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  }
};

/// Result of a k-NN query: at most k neighbors, ascending by distance.
using KnnResult = std::vector<Neighbor>;

/// Resolved (1+eps)-approximate search parameters in the metric's
/// Comparable scale. Both factors are contraction divisors applied to
/// the running k-th-best bound: a node (or SQ8 leaf candidate) whose
/// lower bound exceeds bound/factor is dropped even though it might
/// still hold a true neighbor. The engine derives them from
/// EngineOptions::approx as Metric::ToComparable(1 + epsilon) —
/// (1+eps)^2 for L2, whose comparable scale is squared distance, and
/// (1+eps) for L1/Lmax — so a dropped candidate always has REAL
/// distance > d_k / (1+eps).
///
/// Guarantee (see DESIGN.md "Approximate tier"): because the bound only
/// tightens and finishes equal to the reported k-th distance D_k, every
/// true neighbor missed by the search has distance > D_k/(1+eps). Two
/// testable corollaries: every true neighbor within d_true_k/(1+eps) is
/// returned, and D_k <= (1+eps) * d_true_k.
///
/// The default (both factors 1.0) is EXACT search: every approx branch
/// is gated on factor > 1.0, so results, stats, and page counts are
/// bit-identical to the pre-approx code paths.
struct ApproxContext {
  /// Early-termination divisor for HS descent/pop node skips.
  double node_factor = 1.0;
  /// Bound-relaxation divisor for the SQ8 PruneCutoff guard.
  double sweep_factor = 1.0;
};

/// Best-first (Hjaltason-Samet) k-NN. Charges page reads and distance
/// computations to the tree's disk. Supports L1, L2 and Lmax.
/// `approx` (default: exact) enables the (1+eps)-approximate tier.
KnnResult HsKnn(const TreeBase& tree, PointView query, std::size_t k,
                const Metric& metric = Metric(),
                const ApproxContext& approx = ApproxContext());

/// Branch-and-bound (RKV) k-NN with MINDIST ordering; MINMAXDIST pruning
/// is applied for k == 1 (its classic form). L2 only.
KnnResult RkvKnn(const TreeBase& tree, PointView query, std::size_t k,
                 const Metric& metric = Metric());

/// Linear-scan oracle over a PointSet (ids are positions).
KnnResult BruteForceKnn(const PointSet& points, PointView query,
                        std::size_t k, const Metric& metric = Metric());

/// ε-similarity (ball) query: every stored object within `radius` of
/// `query` (inclusive), ascending by distance. The similarity-threshold
/// counterpart of k-NN ("all images at least this similar"). Charges
/// page reads like the other searches.
KnnResult BallQuery(const TreeBase& tree, PointView query, double radius,
                    const Metric& metric = Metric());

/// Linear-scan oracle for BallQuery.
KnnResult BruteForceBallQuery(const PointSet& points, PointView query,
                              double radius, const Metric& metric = Metric());

/// MINDIST between a query point and a rectangle in the metric's
/// Comparable scale (squared for L2).
double MinDistComparable(const Rect& rect, PointView query,
                         const Metric& metric);

/// MINDIST between two rectangles in the metric's Comparable scale: a
/// lower bound on Comparable(a, b) for any point a in `a` and b in `b`,
/// 0 when they intersect. The block-pair pruning predicate of the
/// all-pairs similarity join (compare against ToComparable(epsilon)).
double MinDistComparable(const Rect& a, const Rect& b, const Metric& metric);

/// Early-exit MINDIST against a known cutoff (the descent fast path of
/// HsSearch::ExpandDirectory, and the self-join's row-vs-box test):
/// returns true iff
/// MinDistComparable(rect, query, metric) > cutoff, bailing out of the
/// per-dimension loop as soon as the partial accumulation — a
/// nondecreasing sum/max of nonnegative terms — already exceeds it.
/// When it returns false, *out is the full MINDIST, bit-identical to
/// MinDistComparable (the loops replay its exact operation sequence;
/// the extra compare changes no arithmetic).
bool MinDistExceeds(const Rect& rect, PointView query, const Metric& metric,
                    double cutoff, double* out);

}  // namespace parsim

#endif  // PARSIM_SRC_INDEX_KNN_H_
