#include "src/index/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/index/hs_search.h"
#include "src/index/leaf_block.h"
#include "src/index/leaf_sweep.h"
#include "src/util/check.h"
#include "src/util/phase_timer.h"

namespace parsim {

double MinDistComparable(const Rect& rect, PointView query,
                         const Metric& metric) {
  PARSIM_DCHECK(rect.dim() == query.size());
  switch (metric.kind()) {
    case MetricKind::kL2:
      return rect.SquaredMinDist(query);
    case MetricKind::kL1: {
      // Branch-free per-dimension gap (see Rect::SquaredMinDist): the
      // max of {lo - q, q - hi, 0} is the exact value the branchy form
      // selects, accumulated in the same order. The branchy original
      // added 0.0 for interior dimensions only implicitly (no add);
      // adding an explicit +0.0 leaves a finite double sum unchanged.
      double sum = 0.0;
      for (std::size_t i = 0; i < query.size(); ++i) {
        const double below = static_cast<double>(rect.lo(i)) -
                             static_cast<double>(query[i]);
        const double above = static_cast<double>(query[i]) -
                             static_cast<double>(rect.hi(i));
        sum += std::max(std::max(below, above), 0.0);
      }
      return sum;
    }
    case MetricKind::kLmax: {
      double best = 0.0;
      for (std::size_t i = 0; i < query.size(); ++i) {
        const double below = static_cast<double>(rect.lo(i)) -
                             static_cast<double>(query[i]);
        const double above = static_cast<double>(query[i]) -
                             static_cast<double>(rect.hi(i));
        best = std::max(best, std::max(std::max(below, above), 0.0));
      }
      return best;
    }
  }
  PARSIM_UNREACHABLE();
}

double MinDistComparable(const Rect& a, const Rect& b, const Metric& metric) {
  PARSIM_DCHECK(a.dim() == b.dim());
  switch (metric.kind()) {
    case MetricKind::kL2:
      return a.SquaredMinDist(b);
    case MetricKind::kL1: {
      // Per-dimension slab gap between the two intervals (see
      // Rect::SquaredMinDist(const Rect&)), accumulated per metric:
      // summed for L1, maxed for Lmax.
      double sum = 0.0;
      for (std::size_t i = 0; i < a.dim(); ++i) {
        const double below =
            static_cast<double>(a.lo(i)) - static_cast<double>(b.hi(i));
        const double above =
            static_cast<double>(b.lo(i)) - static_cast<double>(a.hi(i));
        sum += std::max(std::max(below, above), 0.0);
      }
      return sum;
    }
    case MetricKind::kLmax: {
      double best = 0.0;
      for (std::size_t i = 0; i < a.dim(); ++i) {
        const double below =
            static_cast<double>(a.lo(i)) - static_cast<double>(b.hi(i));
        const double above =
            static_cast<double>(b.lo(i)) - static_cast<double>(a.hi(i));
        best = std::max(best, std::max(std::max(below, above), 0.0));
      }
      return best;
    }
  }
  PARSIM_UNREACHABLE();
}

bool MinDistExceeds(const Rect& rect, PointView query, const Metric& metric,
                    double cutoff, double* out) {
  PARSIM_DCHECK(rect.dim() == query.size());
  // Each branch replays the corresponding full-MINDIST loop operation
  // for operation (L2: Rect::SquaredMinDist; L1/Lmax: MinDistComparable
  // above), adding only a compare against `cutoff`. The running value is
  // a nondecreasing accumulation of nonnegative per-dimension terms, so
  // partial > cutoff implies final > cutoff; and when the loop finishes,
  // the value is bit-identical to the unbounded computation.
  switch (metric.kind()) {
    case MetricKind::kL2: {
      // Branch-free per-dimension gaps (see Rect::SquaredMinDist) with
      // the early exit kept: the running value is nondecreasing, so
      // exiting on a partial value decides exactly what the final value
      // would, and a completed loop leaves `sum` bit-identical to the
      // unbounded computation.
      double sum = 0.0;
      for (std::size_t i = 0; i < query.size(); ++i) {
        const double below = static_cast<double>(rect.lo(i)) -
                             static_cast<double>(query[i]);
        const double above = static_cast<double>(query[i]) -
                             static_cast<double>(rect.hi(i));
        const double diff = std::max(std::max(below, above), 0.0);
        sum += diff * diff;
        if (sum > cutoff) return true;
      }
      *out = sum;
      return false;
    }
    case MetricKind::kL1: {
      double sum = 0.0;
      for (std::size_t i = 0; i < query.size(); ++i) {
        const double below = static_cast<double>(rect.lo(i)) -
                             static_cast<double>(query[i]);
        const double above = static_cast<double>(query[i]) -
                             static_cast<double>(rect.hi(i));
        sum += std::max(std::max(below, above), 0.0);
        if (sum > cutoff) return true;
      }
      *out = sum;
      return false;
    }
    case MetricKind::kLmax: {
      double best = 0.0;
      for (std::size_t i = 0; i < query.size(); ++i) {
        const double below = static_cast<double>(rect.lo(i)) -
                             static_cast<double>(query[i]);
        const double above = static_cast<double>(query[i]) -
                             static_cast<double>(rect.hi(i));
        best = std::max(best, std::max(std::max(below, above), 0.0));
        if (best > cutoff) return true;
      }
      *out = best;
      return false;
    }
  }
  PARSIM_UNREACHABLE();
}

namespace {

/// Bounded max-heap of the k best candidates in the Comparable scale.
class TopK {
 public:
  explicit TopK(std::size_t k) : k_(k) { PARSIM_CHECK(k >= 1); }

  /// The pruning threshold: the k-th best comparable distance so far, or
  /// +inf while fewer than k candidates are known.
  double Threshold() const {
    return heap_.size() < k_ ? std::numeric_limits<double>::infinity()
                             : heap_.front().first;
  }

  void Offer(double comparable, PointId id) {
    if (heap_.size() < k_) {
      heap_.emplace_back(comparable, id);
      std::push_heap(heap_.begin(), heap_.end());
    } else if (comparable < heap_.front().first) {
      std::pop_heap(heap_.begin(), heap_.end());
      heap_.back() = {comparable, id};
      std::push_heap(heap_.begin(), heap_.end());
    }
  }

  KnnResult Finish(const Metric& metric) && {
    std::sort(heap_.begin(), heap_.end());
    KnnResult out;
    out.reserve(heap_.size());
    for (const auto& [comparable, id] : heap_) {
      out.push_back(Neighbor{id, metric.FromComparable(comparable)});
    }
    return out;
  }

 private:
  std::size_t k_;
  // (comparable distance, id); max-heap on distance.
  std::vector<std::pair<double, PointId>> heap_;
};

}  // namespace

KnnResult HsKnn(const TreeBase& tree, PointView query, std::size_t k,
                const Metric& metric, const ApproxContext& approx) {
  PARSIM_CHECK(query.size() == tree.dim());
  // One search per thread, its frontier storage reused across queries.
  thread_local HsSearch search;
  search.Start(tree.root_id(), k, metric, approx);
  for (NodeId id = search.Next(); id != kInvalidNodeId; id = search.Next()) {
    const Node* node;
    {
      ScopedPhase phase(Phase::kIo);
      node = &tree.AccessNode(id);
    }
    if (!node->IsLeaf()) {
      search.ExpandDirectory(*node, query);
      continue;
    }
    const LeafBlock& block = tree.LeafBlockOf(*node);
    tree.ChargeLeafSweep(
        *node, SweepLeafDistances(
                   block, query, metric, [&] { return search.Cutoff(); },
                   [&](std::size_t i, double key) {
                     search.PushPoint(key, block.ids[i]);
                   },
                   approx.sweep_factor));
  }
  tree.disk()->Record(search.frontier);
  return std::move(search.result);
}

namespace {

void RkvVisit(const TreeBase& tree, NodeId node_id, PointView query,
              std::size_t k, const Metric& metric, TopK* best) {
  const Node& node = tree.AccessNode(node_id);
  if (node.IsLeaf()) {
    // TopK::Offer rejects keys >= Threshold() when full, so pruning on
    // the (re-read, tightening) threshold preserves the heap's update
    // sequence exactly.
    const LeafBlock& block = tree.LeafBlockOf(node);
    tree.ChargeLeafSweep(
        node, SweepLeafDistances(
                  block, query, metric, [&] { return best->Threshold(); },
                  [&](std::size_t i, double key) {
                    best->Offer(key, block.ids[i]);
                  }));
    return;
  }
  struct Branch {
    double mindist;
    double minmaxdist;
    NodeId child;
  };
  std::vector<Branch> branches;
  branches.reserve(node.entries.size());
  for (const NodeEntry& e : node.entries) {
    branches.push_back(Branch{e.rect.SquaredMinDist(query),
                              e.rect.SquaredMinMaxDist(query), e.child});
  }
  std::sort(branches.begin(), branches.end(),
            [](const Branch& a, const Branch& b) {
              return a.mindist < b.mindist;
            });
  // MINMAXDIST pruning (k == 1): some object within the branch lies at
  // distance <= minmaxdist, so the NN distance cannot exceed the smallest
  // minmaxdist; branches whose mindist is beyond it are dead.
  double upper = std::numeric_limits<double>::infinity();
  if (k == 1) {
    for (const Branch& b : branches) upper = std::min(upper, b.minmaxdist);
  }
  for (const Branch& b : branches) {
    if (b.mindist > best->Threshold()) break;  // sorted: rest are worse
    if (b.mindist > upper) break;
    RkvVisit(tree, b.child, query, k, metric, best);
  }
}

}  // namespace

KnnResult RkvKnn(const TreeBase& tree, PointView query, std::size_t k,
                 const Metric& metric) {
  PARSIM_CHECK(query.size() == tree.dim());
  PARSIM_CHECK(k >= 1);
  PARSIM_CHECK(metric.kind() == MetricKind::kL2);
  TopK best(k);
  if (tree.root_id() != kInvalidNodeId) {
    RkvVisit(tree, tree.root_id(), query, k, metric, &best);
  }
  return std::move(best).Finish(metric);
}

KnnResult BallQuery(const TreeBase& tree, PointView query, double radius,
                    const Metric& metric) {
  PARSIM_CHECK(query.size() == tree.dim());
  PARSIM_CHECK(radius >= 0.0);
  KnnResult out;
  if (tree.root_id() == kInvalidNodeId) return out;
  const double threshold = metric.ToComparable(radius);
  std::vector<NodeId> stack = {tree.root_id()};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    const Node& node = tree.AccessNode(id);
    if (node.IsLeaf()) {
      // Constant threshold (the ball radius in the comparable scale):
      // a candidate with lower bound above it fails `<= threshold` for
      // sure, so the emitted set is unchanged.
      const LeafBlock& block = tree.LeafBlockOf(node);
      tree.ChargeLeafSweep(
          node, SweepLeafDistances(
                    block, query, metric, [&] { return threshold; },
                    [&](std::size_t i, double key) {
                      if (key <= threshold) {
                        out.push_back(Neighbor{block.ids[i],
                                               metric.FromComparable(key)});
                      }
                    }));
    } else {
      for (const NodeEntry& e : node.entries) {
        if (MinDistComparable(e.rect, query, metric) <= threshold) {
          stack.push_back(e.child);
        }
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

namespace {

/// Block size of the linear-scan drivers: large enough to amortize the
/// kernel dispatch, small enough that the distance block stays in L1.
constexpr std::size_t kScanBlock = 1024;

}  // namespace

KnnResult BruteForceBallQuery(const PointSet& points, PointView query,
                              double radius, const Metric& metric) {
  PARSIM_CHECK(radius >= 0.0);
  const double threshold = metric.ToComparable(radius);
  KnnResult out;
  double dists[kScanBlock];
  const std::size_t dim = points.dim();
  for (std::size_t start = 0; start < points.size(); start += kScanBlock) {
    const std::size_t n = std::min(kScanBlock, points.size() - start);
    metric.ComparableMany(query, points.data() + start * dim, n, dim, dists);
    for (std::size_t i = 0; i < n; ++i) {
      if (dists[i] <= threshold) {
        out.push_back(Neighbor{static_cast<PointId>(start + i),
                               metric.FromComparable(dists[i])});
      }
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

KnnResult BruteForceKnn(const PointSet& points, PointView query,
                        std::size_t k, const Metric& metric) {
  PARSIM_CHECK(query.size() == points.dim() || points.empty());
  PARSIM_CHECK(k >= 1);
  // Bounded max-heap of the k best candidates, fed block-wise by the
  // one-to-many kernel — never a full materialize-and-sort.
  TopK best(k);
  double dists[kScanBlock];
  const std::size_t dim = points.dim();
  for (std::size_t start = 0; start < points.size(); start += kScanBlock) {
    const std::size_t n = std::min(kScanBlock, points.size() - start);
    metric.ComparableMany(query, points.data() + start * dim, n, dim, dists);
    for (std::size_t i = 0; i < n; ++i) {
      best.Offer(dists[i], static_cast<PointId>(start + i));
    }
  }
  return std::move(best).Finish(metric);
}

}  // namespace parsim
