#include "src/index/knn.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

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

namespace {

/// A frontier entry: a node (is_point == false) keyed by MINDIST or a
/// data point keyed by its actual distance, both in the Comparable
/// scale. The MINDIST is computed once, at push time, and carried in
/// `key` — never recomputed on pop.
struct HsItem {
  double key;
  bool is_point;
  std::uint32_t ref;  // NodeId or PointId
};

struct HsGreaterKey {
  bool operator()(const HsItem& a, const HsItem& b) const {
    return a.key > b.key;
  }
};

/// Per-thread frontier storage, reused across queries: steady-state
/// searches push/pop into already-sized vectors instead of reallocating
/// a fresh priority_queue per query. The explicit push_heap/pop_heap
/// calls are exactly what std::priority_queue runs internally, so the
/// pop sequence is unchanged.
struct HsScratch {
  std::vector<HsItem> heap;
  std::vector<double> bound;
};

HsScratch& HsFrontierScratch() {
  thread_local HsScratch scratch;
  return scratch;
}

}  // namespace

KnnResult HsKnn(const TreeBase& tree, PointView query, std::size_t k,
                const Metric& metric, const ApproxContext& approx) {
  PARSIM_CHECK(query.size() == tree.dim());
  PARSIM_CHECK(k >= 1);
  KnnResult result;
  if (tree.root_id() == kInvalidNodeId) return result;
  // Early-termination mode: node items are tested against the RELAXED
  // cutoff bound/node_factor, at push time and again at pop time (the
  // bound tightens in between, so a pop-time skip saves the page read a
  // push-time test could not). Dropping a node can only LOSE points —
  // the surviving bound is never tighter than the exact search's at the
  // same pops — so the (1+eps) contract of ApproxContext holds, and the
  // full-k guarantee survives: a skip requires a full bound (k point
  // keys pushed), and those k points can only pop into the result.
  const bool node_approx = approx.node_factor > 1.0;

  HsScratch& scratch = HsFrontierScratch();
  std::vector<HsItem>& heap = scratch.heap;
  // Max-heap of the k smallest point keys pushed so far. A point whose
  // key exceeds its top can never be popped: at least k point items with
  // smaller keys are already queued ahead of it, and the k-th of those
  // terminates the search. Skipping such pushes therefore leaves the pop
  // sequence — results, page fetches, and distance counts — bit-identical
  // while keeping the frontier orders of magnitude smaller (the batched
  // scheduler in src/parallel/batch_knn.cc interleaves many frontiers, so
  // their total footprint decides cache residency).
  std::vector<double>& bound = scratch.bound;
  heap.clear();
  bound.clear();
  bound.reserve(k);
  // Frontier traffic, booked into the tree's stats sink at the end.
  Counters frontier;
  const auto push_point = [&](double key, std::uint32_t id) {
    if (bound.size() < k) {
      bound.push_back(key);
      std::push_heap(bound.begin(), bound.end());
    } else if (key > bound.front()) {
      return;
    } else if (key < bound.front()) {
      std::pop_heap(bound.begin(), bound.end());
      bound.back() = key;
      std::push_heap(bound.begin(), bound.end());
    }
    heap.push_back(HsItem{key, true, id});
    std::push_heap(heap.begin(), heap.end(), HsGreaterKey{});
    ++frontier.frontier_pushes;
  };
  heap.push_back(HsItem{0.0, false, tree.root_id()});
  ++frontier.frontier_pushes;
  while (!heap.empty() && result.size() < k) {
    HsItem item;
    {
      ScopedPhase phase(Phase::kFrontier);
      std::pop_heap(heap.begin(), heap.end(), HsGreaterKey{});
      item = heap.back();
      heap.pop_back();
      ++frontier.frontier_pops;
      if (item.is_point) {
        result.push_back(Neighbor{item.ref, metric.FromComparable(item.key)});
        continue;
      }
    }
    if (node_approx && bound.size() >= k &&
        item.key > bound.front() / approx.node_factor) {
      // Never fires on the exact path (factor 1.0): a node whose key
      // strictly exceeds the bound cannot pop before the k-th point.
      ++frontier.approx_skipped_nodes;
      continue;
    }
    const Node* node;
    {
      ScopedPhase phase(Phase::kIo);
      node = &tree.AccessNode(item.ref);
    }
    if (node->IsLeaf()) {
      // The sweep's threshold is the running k-th best point key: a
      // candidate strictly above it would be dropped by push_point's
      // frontier bound anyway, so pruning on it preserves the pop
      // sequence bit for bit (see src/index/leaf_sweep.h).
      const LeafBlock& block = tree.LeafBlockOf(*node);
      tree.ChargeLeafSweep(
          *node, SweepLeafDistances(
                     block, query, metric,
                     [&] {
                       return bound.size() < k
                                  ? std::numeric_limits<double>::infinity()
                                  : bound.front();
                     },
                     [&](std::size_t i, double key) {
                       push_point(key, block.ids[i]);
                     },
                     approx.sweep_factor));
    } else {
      // Descent fast path: with the result bound full, a child whose
      // MINDIST strictly exceeds the k-th best point key can never pop
      // before the search terminates — the >= k queued point items with
      // keys <= bound.front() all pop first, and the k-th pop ends the
      // loop. Skipping its insertion (and bailing out of the MINDIST
      // accumulation the moment it crosses the bound) changes no pops.
      // Ties MUST still be pushed: a node with key == bound.front()
      // could pop before an equal-keyed point under the heap's internal
      // order, and dropping it could change the visit sequence.
      ScopedPhase phase(Phase::kDescent);
      const double cut = bound.size() < k
                             ? std::numeric_limits<double>::infinity()
                             : bound.front();
      // The exact cutoff test runs first so cutoff_skipped_nodes keeps
      // its exact-path meaning (and its bit-identical count at eps=0);
      // children inside the exact cut but outside the relaxed one are
      // the approximation's own skips.
      const double rcut = node_approx ? cut / approx.node_factor : cut;
      for (const NodeEntry& e : node->entries) {
        double key;
        if (MinDistExceeds(e.rect, query, metric, cut, &key)) {
          ++frontier.cutoff_skipped_nodes;
          continue;
        }
        if (node_approx && key > rcut) {
          ++frontier.approx_skipped_nodes;
          continue;
        }
        heap.push_back(HsItem{key, false, e.child});
        std::push_heap(heap.begin(), heap.end(), HsGreaterKey{});
        ++frontier.frontier_pushes;
      }
    }
  }
  tree.disk()->Record(frontier);
  return result;
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
  std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  });
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
  std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
    if (a.distance != b.distance) return a.distance < b.distance;
    return a.id < b.id;
  });
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
