#include "src/index/xtree.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/util/check.h"

namespace parsim {

double XTree::RelativeOverlap(const SplitResult& split) const {
  Rect left = Rect::Empty(dim_);
  for (const NodeEntry& e : split.left) left.ExtendToInclude(e.rect);
  Rect right = Rect::Empty(dim_);
  for (const NodeEntry& e : split.right) right.ExtendToInclude(e.rect);
  const double overlap = left.OverlapVolume(right);
  const double combined = left.Volume() + right.Volume();
  if (combined <= 0.0) return overlap > 0.0 ? 1.0 : 0.0;
  return overlap / combined;
}

XTree::SplitResult XTree::ComputeOverlapMinimalSplit(const Node& node) const {
  const std::size_t total = node.entries.size();
  PARSIM_CHECK(total >= 2);
  const auto m = std::max<std::size_t>(
      1, static_cast<std::size_t>(kMinFill * static_cast<double>(total)));

  SplitResult best;
  double best_overlap = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> order(total);

  // Candidate axes: the split history first (dimensions along which the
  // subtree has been split before admit overlap-free partitions), then
  // all others.
  std::vector<std::size_t> axes;
  for (std::size_t a = 0; a < dim_; ++a) {
    if (a < 32 && (node.split_history >> a) & 1u) axes.push_back(a);
  }
  for (std::size_t a = 0; a < dim_; ++a) {
    if (!(a < 32 && (node.split_history >> a) & 1u)) axes.push_back(a);
  }

  for (std::size_t axis : axes) {
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](std::size_t x, std::size_t y) {
      const Rect& rx = node.entries[x].rect;
      const Rect& ry = node.entries[y].rect;
      const double cx =
          static_cast<double>(rx.lo(axis)) + static_cast<double>(rx.hi(axis));
      const double cy =
          static_cast<double>(ry.lo(axis)) + static_cast<double>(ry.hi(axis));
      return cx < cy;
    });
    std::vector<Rect> prefix(total), suffix(total);
    Rect acc = Rect::Empty(dim_);
    for (std::size_t i = 0; i < total; ++i) {
      acc.ExtendToInclude(node.entries[order[i]].rect);
      prefix[i] = acc;
    }
    acc = Rect::Empty(dim_);
    for (std::size_t i = total; i-- > 0;) {
      acc.ExtendToInclude(node.entries[order[i]].rect);
      suffix[i] = acc;
    }
    for (std::size_t k = m; k + m <= total; ++k) {
      const double overlap = prefix[k - 1].OverlapVolume(suffix[k]);
      if (overlap < best_overlap) {
        best_overlap = overlap;
        best.axis = static_cast<int>(axis);
        best.overlap_volume = overlap;
        best.left.clear();
        best.right.clear();
        for (std::size_t i = 0; i < total; ++i) {
          const NodeEntry& e = node.entries[order[i]];
          if (i < k) {
            best.left.push_back(e);
          } else {
            best.right.push_back(e);
          }
        }
        if (overlap == 0.0 && (axis < 32 && ((node.split_history >> axis) & 1u))) {
          return best;  // overlap-free along a historic axis: take it
        }
      }
    }
  }
  PARSIM_CHECK(best.axis >= 0);
  return best;
}

NodeId XTree::SplitNode(NodeId node_id) {
  const Node& node = PeekNode(node_id);

  // Leaves: plain topological split (point MBRs always split cleanly
  // enough; supernodes are directory-only).
  if (node.IsLeaf()) {
    SplitResult split = ComputeRStarSplit(node);
    return ApplySplit(node_id, std::move(split));
  }

  // 1. Topological split.
  SplitResult topological = ComputeRStarSplit(node);
  if (RelativeOverlap(topological) <= xtree_options_.max_overlap) {
    return ApplySplit(node_id, std::move(topological));
  }

  // 2. Overlap-minimal split.
  SplitResult minimal = ComputeOverlapMinimalSplit(node);
  if (RelativeOverlap(minimal) <= xtree_options_.max_overlap) {
    return ApplySplit(node_id, std::move(minimal));
  }

  // 3. No good split exists: supernode.
  if (xtree_options_.enable_supernodes) {
    Node& mutable_node = MutableNode(node_id);
    ++mutable_node.pages;
    ++supernode_extensions_;
    disk()->WritePages(1);
    return kInvalidNodeId;
  }
  // Supernodes disabled (ablation): fall back to the less-bad split.
  if (RelativeOverlap(minimal) < RelativeOverlap(topological)) {
    return ApplySplit(node_id, std::move(minimal));
  }
  return ApplySplit(node_id, std::move(topological));
}

}  // namespace parsim
