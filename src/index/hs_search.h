// One query's best-first k-NN search of Hjaltason & Samet [HS 95],
// written once and driven from outside.
//
// The search owns the frontier — a min-heap of nodes keyed by MINDIST
// and of points keyed by their distance, both in the metric's
// Comparable scale — plus the k-bound and the result. It never reads a
// page itself: Next() pops until the frontier's head is a node and
// hands that node's id to the caller, which fetches the node and feeds
// it back, a directory through ExpandDirectory() and a leaf as a sweep
// that reads Cutoff() and calls PushPoint(). Two callers run it:
//
//   * HsKnn (src/index/knn.cc) runs one query to completion;
//   * HsRoundScheduler (src/parallel/round_scheduler.h) pauses many
//     searches at Next() and serves the nodes they ask for in coalesced
//     rounds.
//
// Both therefore pop, push and skip exactly alike, so a query's answer
// and its frontier counters do not depend on which one runs it.

#ifndef PARSIM_SRC_INDEX_HS_SEARCH_H_
#define PARSIM_SRC_INDEX_HS_SEARCH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/geometry/metric.h"
#include "src/geometry/point.h"
#include "src/index/knn.h"
#include "src/index/node.h"
#include "src/io/counters.h"
#include "src/util/check.h"
#include "src/util/phase_timer.h"

namespace parsim {

class HsSearch {
 public:
  /// Starts a k-NN search at `root` (kInvalidNodeId: an empty tree, the
  /// search finishes at once). `metric` must outlive the search; the
  /// storage of the previous search is reused.
  /// `approx_factor` > 1 is the approximate tier's comparable-scale
  /// factor (see HsKnn in src/index/knn.h); 1.0 searches exactly.
  void Start(NodeId root, std::size_t k, const Metric& metric,
             double approx_factor) {
    PARSIM_CHECK(k >= 1);
    k_ = k;
    metric_ = &metric;
    approx_factor_ = approx_factor;
    heap_.clear();
    bound_.clear();
    bound_.reserve(k);
    result.clear();
    frontier = Counters{};
    if (root != kInvalidNodeId) Push(Item{0.0, false, root});
  }

  /// Pops the frontier until its head is a node the search must read and
  /// returns that node's id; points pop into `result` on the way. Returns
  /// kInvalidNodeId once k points have popped or the frontier is empty.
  ///
  /// Approximate tier (approx_factor > 1): a popped node whose key
  /// exceeds the relaxed cutoff bound/approx_factor is dropped instead of
  /// read. The bound tightens between a node's push and its pop, so this
  /// saves pages the push-time test in ExpandDirectory could not.
  /// Dropping a node can only lose points, and the surviving bound is
  /// never tighter than the exact search's at the same pops, so the
  /// (1+eps) contract of HsKnn holds. A skip needs a full bound (k point
  /// keys pushed), and those k points still pop, so the answer keeps k
  /// entries. On the exact path this never fires: a node whose key
  /// strictly exceeds the bound cannot pop before the k-th point.
  NodeId Next() {
    ScopedPhase phase(Phase::kFrontier);
    while (result.size() < k_ && !heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), GreaterKey{});
      const Item item = heap_.back();
      heap_.pop_back();
      ++frontier.frontier_pops;
      if (item.is_point) {
        result.push_back(Neighbor{item.ref, metric_->FromComparable(item.key)});
        continue;
      }
      if (approx_factor_ > 1.0 && bound_.size() >= k_ &&
          item.key > bound_.front() / approx_factor_) {
        ++frontier.approx_skipped_nodes;
        continue;
      }
      return item.ref;
    }
    return kInvalidNodeId;
  }

  /// Pushes the children of directory `node`, keyed by their MINDIST to
  /// `query`: one Metric::MinDistMany call scores every child of the
  /// node's DirImage, and the children are then walked in entry order.
  /// With the bound full, a child whose MINDIST strictly exceeds Cutoff()
  /// can never pop before the search ends: the k queued points with keys
  /// <= Cutoff() all pop first, and the k-th ends it. Such a child is not
  /// pushed; no pop changes. A tie MUST still push: a node keyed exactly
  /// at the cutoff may pop before an equal-keyed point, and dropping it
  /// could change the visit sequence.
  ///
  /// The exact cutoff test runs first, so cutoff_skipped_nodes keeps its
  /// exact-path meaning (and its count at eps=0); children inside the
  /// exact cutoff but past the relaxed one are the approximate tier's
  /// own skips.
  void ExpandDirectory(const Node& node, PointView query) {
    ScopedPhase phase(Phase::kDescent);
    const DirImage& image = node.image;
    const std::size_t n = image.count();
    if (keys_.size() < n) keys_.resize(n);
    metric_->MinDistMany(query, image.lo(), image.hi(), n, n, keys_.data());
    const bool node_approx = approx_factor_ > 1.0;
    const double cut = Cutoff();
    const double rcut = cut / approx_factor_;
    for (std::size_t j = 0; j < n; ++j) {
      const double key = keys_[j];
      if (key > cut) {
        ++frontier.cutoff_skipped_nodes;
        continue;
      }
      if (node_approx && key > rcut) {
        ++frontier.approx_skipped_nodes;
        continue;
      }
      Push(Item{key, false, image.children[j]});
    }
  }

  /// The running k-th best point key pushed so far, +inf while fewer than
  /// k points were pushed. A leaf sweep prunes against it: a candidate
  /// strictly above it would be dropped by PushPoint anyway.
  double Cutoff() const {
    return bound_.size() < k_ ? std::numeric_limits<double>::infinity()
                              : bound_.front();
  }

  /// Offers a data point with its comparable distance. A point whose key
  /// exceeds Cutoff() can never pop: k points with smaller keys are
  /// already queued ahead of it, and the k-th of those ends the search.
  /// Skipping it leaves the pop sequence unchanged while keeping the
  /// frontier orders of magnitude smaller, which matters when a round
  /// interleaves many frontiers.
  void PushPoint(double key, std::uint32_t id) {
    if (bound_.size() < k_) {
      bound_.push_back(key);
      std::push_heap(bound_.begin(), bound_.end());
    } else if (key > bound_.front()) {
      return;
    } else if (key < bound_.front()) {
      std::pop_heap(bound_.begin(), bound_.end());
      bound_.back() = key;
      std::push_heap(bound_.begin(), bound_.end());
    }
    Push(Item{key, true, id});
  }

  /// The neighbours popped so far, ascending by distance: the answer once
  /// Next() returned kInvalidNodeId, the best-first prefix before that.
  KnnResult result;
  /// This search's frontier traffic (pushes, pops, cutoff and approx
  /// skips); the caller books it into the query's host stats.
  Counters frontier;

 private:
  /// A node (is_point == false) keyed by MINDIST, computed once at push
  /// time, or a data point keyed by its distance.
  struct Item {
    double key;
    bool is_point;
    std::uint32_t ref;  // NodeId or PointId
  };
  struct GreaterKey {
    bool operator()(const Item& a, const Item& b) const {
      return a.key > b.key;
    }
  };

  void Push(const Item& item) {
    heap_.push_back(item);
    std::push_heap(heap_.begin(), heap_.end(), GreaterKey{});
    ++frontier.frontier_pushes;
  }

  std::size_t k_ = 0;
  const Metric* metric_ = nullptr;
  double approx_factor_ = 1.0;
  /// Min-heap on key through push_heap/pop_heap with GreaterKey, the
  /// algorithm std::priority_queue runs, in storage that Start reuses.
  std::vector<Item> heap_;
  /// Max-heap of the k smallest point keys pushed so far.
  std::vector<double> bound_;
  /// ExpandDirectory's MINDIST of every child, grown to the widest node.
  std::vector<double> keys_;
};

}  // namespace parsim

#endif  // PARSIM_SRC_INDEX_HS_SEARCH_H_
