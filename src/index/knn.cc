#include "src/index/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/index/hs_search.h"
#include "src/index/leaf_sweep.h"
#include "src/util/check.h"
#include "src/util/phase_timer.h"

namespace parsim {

namespace {

/// One dimension's MINDIST step: the gap squared and summed (L2),
/// summed (L1) or maxed (Lmax).
template <MetricKind K>
inline double GapStep(double acc, double gap) {
  if constexpr (K == MetricKind::kL2) {
    return acc + gap * gap;
  } else if constexpr (K == MetricKind::kL1) {
    return acc + gap;
  } else {
    return std::max(acc, gap);
  }
}

/// MINDIST between the boxes [a_lo, a_hi] and [b_lo, b_hi] (a point is
/// the box b_lo == b_hi) in the comparable scale. Each dimension's gap is
/// max(max(a_lo - b_hi, b_lo - a_hi), 0): at most one of the two
/// differences is positive, so the max is exactly the value a branchy
/// form selects, without its data-dependent branches. Gaps fold in
/// dimension order, and the fold stops once the running value exceeds
/// `cutoff`: the value only grows, so a partial value above the cutoff
/// decides what the full one would. Metric::MinDistMany replays this
/// sequence for many boxes, bit for bit.
template <MetricKind K>
double FoldGaps(const Scalar* a_lo, const Scalar* a_hi, const Scalar* b_lo,
                const Scalar* b_hi, std::size_t dim, double cutoff) {
  double acc = 0.0;
  for (std::size_t i = 0; i < dim; ++i) {
    const double below =
        static_cast<double>(a_lo[i]) - static_cast<double>(b_hi[i]);
    const double above =
        static_cast<double>(b_lo[i]) - static_cast<double>(a_hi[i]);
    acc = GapStep<K>(acc, std::max(std::max(below, above), 0.0));
    if (acc > cutoff) break;
  }
  return acc;
}

double FoldGaps(MetricKind kind, PointView a_lo, PointView a_hi,
                PointView b_lo, PointView b_hi, double cutoff) {
  PARSIM_DCHECK(a_lo.size() == b_lo.size());
  const std::size_t dim = a_lo.size();
  switch (kind) {
    case MetricKind::kL1:
      return FoldGaps<MetricKind::kL1>(a_lo.data(), a_hi.data(), b_lo.data(),
                                       b_hi.data(), dim, cutoff);
    case MetricKind::kL2:
      return FoldGaps<MetricKind::kL2>(a_lo.data(), a_hi.data(), b_lo.data(),
                                       b_hi.data(), dim, cutoff);
    case MetricKind::kLmax:
      return FoldGaps<MetricKind::kLmax>(a_lo.data(), a_hi.data(),
                                         b_lo.data(), b_hi.data(), dim,
                                         cutoff);
  }
  PARSIM_UNREACHABLE();
}

constexpr double kNoCutoff = std::numeric_limits<double>::infinity();

}  // namespace

double MinDistComparable(const Rect& rect, PointView query,
                         const Metric& metric) {
  return FoldGaps(metric.kind(), rect.lo(), rect.hi(), query, query,
                  kNoCutoff);
}

double MinDistComparable(const Rect& a, const Rect& b, const Metric& metric) {
  return FoldGaps(metric.kind(), a.lo(), a.hi(), b.lo(), b.hi(), kNoCutoff);
}

bool MinDistExceeds(const Rect& rect, PointView query, const Metric& metric,
                    double cutoff, double* out) {
  const double value =
      FoldGaps(metric.kind(), rect.lo(), rect.hi(), query, query, cutoff);
  if (value > cutoff) return true;
  *out = value;
  return false;
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
                const Metric& metric, double approx_factor) {
  PARSIM_CHECK(query.size() == tree.dim());
  // One search per thread, its frontier storage reused across queries.
  thread_local HsSearch search;
  search.Start(tree.root_id(), k, metric, approx_factor);
  for (NodeId id = search.Next(); id != kInvalidNodeId; id = search.Next()) {
    const Node* node;
    TreeBase::DiskRoute route;
    {
      ScopedPhase phase(Phase::kIo);
      node = &tree.AccessNode(id, &route);
    }
    if (!node->IsLeaf()) {
      search.ExpandDirectory(*node, query);
      continue;
    }
    const LeafBlock& block = node->block;
    tree.ChargeLeafSweep(
        route, SweepLeafDistances(
                   block, query, metric, [&] { return search.Cutoff(); },
                   [&](std::size_t i, double key) {
                     search.PushPoint(key, block.ids[i]);
                   },
                   approx_factor));
  }
  tree.disk()->Record(search.frontier);
  return std::move(search.result);
}

namespace {

void RkvVisit(const TreeBase& tree, NodeId node_id, PointView query,
              std::size_t k, const Metric& metric, TopK* best) {
  TreeBase::DiskRoute route;
  const Node& node = tree.AccessNode(node_id, &route);
  if (node.IsLeaf()) {
    // TopK::Offer rejects keys >= Threshold() when full, so pruning on
    // the (re-read, tightening) threshold preserves the heap's update
    // sequence exactly.
    const LeafBlock& block = node.block;
    tree.ChargeLeafSweep(
        route, SweepLeafDistances(
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
  std::vector<double> keys;
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    TreeBase::DiskRoute route;
    const Node& node = tree.AccessNode(id, &route);
    if (node.IsLeaf()) {
      // Constant threshold (the ball radius in the comparable scale):
      // a candidate with lower bound above it fails `<= threshold` for
      // sure, so the emitted set is unchanged.
      const LeafBlock& block = node.block;
      tree.ChargeLeafSweep(
          route, SweepLeafDistances(
                    block, query, metric, [&] { return threshold; },
                    [&](std::size_t i, double key) {
                      if (key <= threshold) {
                        out.push_back(Neighbor{block.ids[i],
                                               metric.FromComparable(key)});
                      }
                    }));
    } else {
      // One kernel call over the node's image; its keys are the
      // MinDistComparable values bit for bit.
      const DirImage& image = node.image;
      keys.resize(image.count());
      metric.MinDistMany(query, image.lo(), image.hi(), image.count(),
                         image.count(), keys.data());
      for (std::size_t j = 0; j < image.count(); ++j) {
        if (keys[j] <= threshold) stack.push_back(image.children[j]);
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
