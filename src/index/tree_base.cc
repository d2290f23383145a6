#include "src/index/tree_base.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "src/geometry/metric.h"
#include "src/hilbert/hilbert.h"
#include "src/util/check.h"
#include "src/util/parallel_sort.h"
#include "src/util/thread_pool.h"

namespace parsim {

TreeBase::TreeBase(std::size_t dim, SimulatedDisk* disk, TreeOptions options)
    : dim_(dim),
      disk_(disk),
      options_(options),
      leaf_capacity_(LeafCapacityPerPage(dim)),
      dir_capacity_(DirCapacityPerPage(dim)) {
  PARSIM_CHECK(dim >= 1);
  PARSIM_CHECK(disk != nullptr);
  PARSIM_CHECK(options_.bulk_load_fill > 0.0 && options_.bulk_load_fill <= 1.0);
}

int TreeBase::height() const {
  if (root_ == kInvalidNodeId) return 0;
  return nodes_[root_]->level + 1;
}

std::size_t TreeBase::CapacityOf(const Node& node) const {
  const std::size_t per_page = node.IsLeaf() ? leaf_capacity_ : dir_capacity_;
  return per_page * node.pages;
}

std::size_t TreeBase::MinEntriesOf(const Node& node) const {
  const std::size_t per_page = node.IsLeaf() ? leaf_capacity_ : dir_capacity_;
  const auto m =
      static_cast<std::size_t>(kMinFill * static_cast<double>(per_page));
  return std::max<std::size_t>(1, m);
}

bool TreeBase::Overflowing(const Node& node) const {
  return node.entries.size() > CapacityOf(node);
}

Node& TreeBase::MutableNode(NodeId id) {
  PARSIM_CHECK(id < nodes_.size());
  return *nodes_[id];
}

NodeId TreeBase::AllocateNode(int level) {
  const NodeId id = static_cast<NodeId>(nodes_.size());
  auto node = std::make_unique<Node>();
  node->id = id;
  node->level = level;
  nodes_.push_back(std::move(node));
  disk_->WritePages(1);
  return id;
}

NodeId TreeBase::AllocateNodes(int level, std::size_t count) {
  PARSIM_CHECK(count >= 1);
  const NodeId first = static_cast<NodeId>(nodes_.size());
  nodes_.reserve(nodes_.size() + count);
  for (std::size_t i = 0; i < count; ++i) {
    auto node = std::make_unique<Node>();
    node->id = static_cast<NodeId>(first + i);
    node->level = level;
    nodes_.push_back(std::move(node));
  }
  // One batched charge; Sink().pages_written += count is exactly what
  // `count` AllocateNode calls would have accumulated.
  disk_->WritePages(static_cast<std::uint64_t>(count));
  return first;
}

TreeBase::DiskRoute TreeBase::ResolveRoute(const Node& node) const {
  const DiskRoute route =
      node_disk_resolver_ ? node_disk_resolver_(node) : DiskRoute{disk_};
  PARSIM_CHECK(route.disk != nullptr);
  return route;
}

const Node& TreeBase::AccessNode(NodeId id, DiskRoute* route_out) const {
  PARSIM_CHECK(id < nodes_.size());
  const Node& node = *nodes_[id];
  const DiskRoute route = ResolveRoute(node);
  // Fault annotations are recorded exactly once per node READ (the
  // sweep's charge reuses the route but does not repeat them).
  if (route.failover) route.disk->RecordFailover(route.retry_attempts,
                                                node.pages);
  if (route.unavailable) route.disk->RecordUnavailable(node.pages);
  if (node.IsLeaf()) {
    route.disk->ReadDataPagesBuffered(node.id, node.pages);
  } else {
    route.disk->ReadDirectoryPagesBuffered(node.id, node.pages);
  }
  if (route_out != nullptr) *route_out = route;
  return node;
}

void TreeBase::set_quantized_leaf_blocks(bool on) {
  quantize_leaves_ = on;
  for (const auto& node : nodes_) {
    if (node->IsLeaf()) node->block.BuildFrom(node->entries, dim_, on);
  }
}

const Node& TreeBase::PeekNode(NodeId id) const {
  PARSIM_CHECK(id < nodes_.size());
  return *nodes_[id];
}

Status TreeBase::Insert(PointView p, PointId id) {
  changed_leaves_.clear();
  if (p.size() != dim_) {
    return Status::InvalidArgument("point dimension mismatch");
  }
  if (!AllFinite(p)) {
    return Status::InvalidArgument("point has a NaN or infinite coordinate");
  }
  if (root_ == kInvalidNodeId) {
    root_ = AllocateNode(/*level=*/0);
  }
  NodeEntry entry;
  entry.rect = Rect::AroundPoint(p);
  entry.child = id;
  std::vector<bool> reinsert_done(static_cast<std::size_t>(height()) + 2,
                                  false);
  InsertEntryAtLevel(std::move(entry), /*target_level=*/0, &reinsert_done);
  ++size_;
  SyncChangedNodes();
  return Status::Ok();
}

void TreeBase::SyncChangedNodes() {
  const auto sort_unique = [](std::vector<NodeId>* ids) {
    std::sort(ids->begin(), ids->end());
    ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
  };
  sort_unique(&changed_leaves_);
  for (const NodeId id : changed_leaves_) {
    Node& node = *nodes_[id];
    node.block.BuildFrom(node.entries, dim_, quantize_leaves_);
  }
  sort_unique(&changed_dirs_);
  for (const NodeId id : changed_dirs_) {
    Node& node = *nodes_[id];
    node.image.BuildFrom(node.entries, dim_);
  }
  changed_dirs_.clear();
  data_pages_cache_.store(0, std::memory_order_relaxed);
}

std::vector<NodeId> TreeBase::ChoosePath(const Rect& rect,
                                         int target_level) const {
  PARSIM_CHECK(root_ != kInvalidNodeId);
  std::vector<NodeId> path;
  NodeId current = root_;
  for (;;) {
    path.push_back(current);
    const Node& node = *nodes_[current];
    if (node.level == target_level) break;
    PARSIM_CHECK(node.level > target_level);
    PARSIM_CHECK(!node.entries.empty());

    std::size_t best = 0;
    if (node.level == 1 && target_level == 0) {
      // Children are leaves: R* picks by (nearly) minimum overlap
      // enlargement among the candidates with least area enlargement.
      constexpr std::size_t kOverlapCandidates = 8;
      std::vector<std::size_t> order(node.entries.size());
      std::iota(order.begin(), order.end(), 0);
      auto area_enlargement = [&](std::size_t i) {
        const Rect& r = node.entries[i].rect;
        return Rect::Union(r, rect).Volume() - r.Volume();
      };
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return area_enlargement(a) < area_enlargement(b);
      });
      const std::size_t candidates =
          std::min(kOverlapCandidates, order.size());
      double best_overlap = std::numeric_limits<double>::infinity();
      double best_area_enl = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      for (std::size_t c = 0; c < candidates; ++c) {
        const std::size_t i = order[c];
        const Rect enlarged = Rect::Union(node.entries[i].rect, rect);
        double overlap_delta = 0.0;
        for (std::size_t j = 0; j < node.entries.size(); ++j) {
          if (j == i) continue;
          overlap_delta +=
              enlarged.OverlapVolume(node.entries[j].rect) -
              node.entries[i].rect.OverlapVolume(node.entries[j].rect);
        }
        const double enl = area_enlargement(i);
        const double area = node.entries[i].rect.Volume();
        if (overlap_delta < best_overlap ||
            (overlap_delta == best_overlap &&
             (enl < best_area_enl ||
              (enl == best_area_enl && area < best_area)))) {
          best_overlap = overlap_delta;
          best_area_enl = enl;
          best_area = area;
          best = i;
        }
      }
    } else {
      // Inner levels: least area enlargement, ties by least area.
      double best_enl = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < node.entries.size(); ++i) {
        const Rect& r = node.entries[i].rect;
        const double enl = Rect::Union(r, rect).Volume() - r.Volume();
        const double area = r.Volume();
        if (enl < best_enl || (enl == best_enl && area < best_area)) {
          best_enl = enl;
          best_area = area;
          best = i;
        }
      }
    }
    current = node.entries[best].child;
  }
  return path;
}

void TreeBase::RefreshPathMbrs(const std::vector<NodeId>& path) {
  // Bottom-up: make each parent entry's rect exactly its child's MBR.
  for (std::size_t i = path.size(); i-- > 1;) {
    const NodeId child = path[i];
    const NodeId parent = path[i - 1];
    const Rect mbr = nodes_[child]->ComputeMbr(dim_);
    bool found = false;
    for (NodeEntry& e : nodes_[parent]->entries) {
      if (e.child == child) {
        if (!(e.rect == mbr)) {
          e.rect = mbr;
          NoteEntriesChanged(parent);
        }
        found = true;
        break;
      }
    }
    PARSIM_CHECK(found);
  }
}

void TreeBase::InsertEntryAtLevel(NodeEntry entry, int target_level,
                                  std::vector<bool>* reinsert_done) {
  std::vector<NodeId> path = ChoosePath(entry.rect, target_level);
  nodes_[path.back()]->entries.push_back(std::move(entry));
  NoteEntriesChanged(path.back());
  RefreshPathMbrs(path);

  // Overflow treatment bottom-up along the insertion path.
  std::size_t i = path.size();
  while (i-- > 0) {
    const NodeId nid = path[i];
    if (!Overflowing(*nodes_[nid])) break;
    const int level = nodes_[nid]->level;
    const bool is_root = (nid == root_);
    if (!is_root && options_.forced_reinsert &&
        static_cast<std::size_t>(level) < reinsert_done->size() &&
        !(*reinsert_done)[static_cast<std::size_t>(level)]) {
      (*reinsert_done)[static_cast<std::size_t>(level)] = true;
      std::vector<NodeId> prefix(path.begin(),
                                 path.begin() + static_cast<std::ptrdiff_t>(i) +
                                     1);
      ForcedReinsert(nid, prefix, reinsert_done);
      // The reinsertions ran their own overflow treatment; ancestors on
      // `path` may have been restructured, so stop here.
      break;
    }
    const NodeId sibling = SplitNode(nid);
    if (sibling == kInvalidNodeId) break;  // absorbed in place (supernode)
    if (is_root) {
      GrowRoot(nid, sibling);
      break;
    }
    // Register the sibling with the parent; the parent's own MBR does not
    // change (the entries were partitioned), so ancestors stay exact.
    const NodeId parent = path[i - 1];
    Node& pnode = *nodes_[parent];
    bool found = false;
    for (NodeEntry& e : pnode.entries) {
      if (e.child == nid) {
        e.rect = nodes_[nid]->ComputeMbr(dim_);
        found = true;
        break;
      }
    }
    PARSIM_CHECK(found);
    NodeEntry sibling_entry;
    sibling_entry.rect = nodes_[sibling]->ComputeMbr(dim_);
    sibling_entry.child = sibling;
    pnode.entries.push_back(std::move(sibling_entry));
    NoteEntriesChanged(parent);
    // Continue: the parent may now overflow.
  }
}

void TreeBase::ForcedReinsert(NodeId node_id, const std::vector<NodeId>& path,
                              std::vector<bool>* reinsert_done) {
  Node& node = *nodes_[node_id];
  const Rect mbr = node.ComputeMbr(dim_);
  const Point center = mbr.Center();
  // Sort entries by distance of their rect center to the node center,
  // descending; the farthest kReinsertFraction leave the node. The
  // entry centers are gathered into one contiguous buffer so a single
  // one-to-many kernel call computes every distance ((a-b)^2 == (b-a)^2
  // bitwise, so swapping operands relative to the old per-pair loop
  // cannot change the ordering).
  std::vector<std::size_t> order(node.entries.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<Scalar> centers(node.entries.size() * dim_);
  for (std::size_t i = 0; i < node.entries.size(); ++i) {
    const Point c = node.entries[i].rect.Center();
    std::copy(c.data(), c.data() + dim_,
              centers.data() + i * dim_);
  }
  std::vector<double> dist(node.entries.size());
  Metric(MetricKind::kL2).ComparableMany(center, centers.data(),
                                         node.entries.size(), dim_,
                                         dist.data());
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return dist[a] > dist[b]; });
  const auto k = std::max<std::size_t>(
      1, static_cast<std::size_t>(kReinsertFraction *
                                  static_cast<double>(node.entries.size())));
  std::vector<NodeEntry> removed;
  removed.reserve(k);
  std::vector<bool> take(node.entries.size(), false);
  for (std::size_t i = 0; i < k; ++i) take[order[i]] = true;
  std::vector<NodeEntry> kept;
  kept.reserve(node.entries.size() - k);
  for (std::size_t i = 0; i < node.entries.size(); ++i) {
    if (take[i]) {
      removed.push_back(std::move(node.entries[i]));
    } else {
      kept.push_back(std::move(node.entries[i]));
    }
  }
  node.entries = std::move(kept);
  NoteEntriesChanged(node_id);
  RefreshPathMbrs(path);
  const int level = node.level;
  // Reinsert closest-first (R* found this ordering best).
  for (std::size_t i = removed.size(); i-- > 0;) {
    InsertEntryAtLevel(std::move(removed[i]), level, reinsert_done);
  }
}

void TreeBase::GrowRoot(NodeId left, NodeId right) {
  const int new_level = nodes_[left]->level + 1;
  const NodeId new_root = AllocateNode(new_level);
  Node& root_node = *nodes_[new_root];
  NodeEntry le;
  le.rect = nodes_[left]->ComputeMbr(dim_);
  le.child = left;
  NodeEntry re;
  re.rect = nodes_[right]->ComputeMbr(dim_);
  re.child = right;
  root_node.entries.push_back(std::move(le));
  root_node.entries.push_back(std::move(re));
  NoteEntriesChanged(new_root);
  root_ = new_root;
}

TreeBase::SplitResult TreeBase::ComputeRStarSplit(const Node& node) const {
  const std::size_t total = node.entries.size();
  PARSIM_CHECK(total >= 2);
  const auto m = std::max<std::size_t>(
      1, static_cast<std::size_t>(kMinFill * static_cast<double>(total)));
  PARSIM_CHECK(m <= total - m);

  // For one sorted order, evaluate all legal distributions and
  // accumulate the margin sum; track the best (overlap, area) choice.
  struct Best {
    double overlap = std::numeric_limits<double>::infinity();
    double area = std::numeric_limits<double>::infinity();
    std::size_t cut = 0;
    std::vector<std::size_t> order;
    int axis = -1;
  };

  double best_margin_sum = std::numeric_limits<double>::infinity();
  int best_axis = -1;
  std::vector<std::vector<std::size_t>> best_axis_orders;

  std::vector<std::size_t> order(total);
  for (std::size_t axis = 0; axis < dim_; ++axis) {
    double margin_sum = 0.0;
    std::vector<std::vector<std::size_t>> orders(2);
    for (int by_hi = 0; by_hi < 2; ++by_hi) {
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(),
                [&](std::size_t a, std::size_t b) {
                  const Rect& ra = node.entries[a].rect;
                  const Rect& rb = node.entries[b].rect;
                  if (by_hi) {
                    if (ra.hi(axis) != rb.hi(axis)) {
                      return ra.hi(axis) < rb.hi(axis);
                    }
                    return ra.lo(axis) < rb.lo(axis);
                  }
                  if (ra.lo(axis) != rb.lo(axis)) {
                    return ra.lo(axis) < rb.lo(axis);
                  }
                  return ra.hi(axis) < rb.hi(axis);
                });
      // Prefix and suffix MBRs for O(total) distribution evaluation.
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
        margin_sum += prefix[k - 1].Margin() + suffix[k].Margin();
      }
      orders[static_cast<std::size_t>(by_hi)] = order;
    }
    if (margin_sum < best_margin_sum) {
      best_margin_sum = margin_sum;
      best_axis = static_cast<int>(axis);
      best_axis_orders = std::move(orders);
    }
  }
  PARSIM_CHECK(best_axis >= 0);

  // Along the chosen axis, pick the distribution with minimal overlap
  // volume (ties: minimal total area).
  Best best;
  for (const auto& ord : best_axis_orders) {
    std::vector<Rect> prefix(total), suffix(total);
    Rect acc = Rect::Empty(dim_);
    for (std::size_t i = 0; i < total; ++i) {
      acc.ExtendToInclude(node.entries[ord[i]].rect);
      prefix[i] = acc;
    }
    acc = Rect::Empty(dim_);
    for (std::size_t i = total; i-- > 0;) {
      acc.ExtendToInclude(node.entries[ord[i]].rect);
      suffix[i] = acc;
    }
    for (std::size_t k = m; k + m <= total; ++k) {
      const double overlap = prefix[k - 1].OverlapVolume(suffix[k]);
      const double area = prefix[k - 1].Volume() + suffix[k].Volume();
      if (overlap < best.overlap ||
          (overlap == best.overlap && area < best.area)) {
        best.overlap = overlap;
        best.area = area;
        best.cut = k;
        best.order = ord;
        best.axis = best_axis;
      }
    }
  }
  PARSIM_CHECK(!best.order.empty());

  SplitResult split;
  split.axis = best.axis;
  split.overlap_volume = best.overlap;
  split.left.reserve(best.cut);
  split.right.reserve(total - best.cut);
  for (std::size_t i = 0; i < total; ++i) {
    const NodeEntry& e = node.entries[best.order[i]];
    if (i < best.cut) {
      split.left.push_back(e);
    } else {
      split.right.push_back(e);
    }
  }
  return split;
}

NodeId TreeBase::ApplySplit(NodeId node_id, SplitResult split) {
  Node& node = *nodes_[node_id];
  const NodeId sibling_id = AllocateNode(node.level);
  Node& sibling = *nodes_[sibling_id];  // note: AllocateNode may reallocate
  Node& left_node = *nodes_[node_id];

  const std::uint32_t history =
      split.axis >= 0 && split.axis < 32
          ? (left_node.split_history | (1u << split.axis))
          : left_node.split_history;
  left_node.entries = std::move(split.left);
  left_node.split_history = history;
  sibling.entries = std::move(split.right);
  sibling.split_history = history;

  const std::size_t per_page =
      left_node.IsLeaf() ? leaf_capacity_ : dir_capacity_;
  auto pages_for = [per_page](std::size_t count) {
    return static_cast<std::uint32_t>(
        std::max<std::size_t>(1, (count + per_page - 1) / per_page));
  };
  left_node.pages = pages_for(left_node.entries.size());
  sibling.pages = pages_for(sibling.entries.size());
  disk_->WritePages(left_node.pages + sibling.pages);
  NoteEntriesChanged(node_id);
  NoteEntriesChanged(sibling_id);
  return sibling_id;
}

namespace {

// Runs body(i) for i in [0, n): over `pool` when given, inline otherwise.
// Every use below writes disjoint state per iteration, so the two modes
// are interchangeable and the parallel build stays bit-identical.
void ForEachIndex(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (pool != nullptr && n > 1) {
    pool->ParallelFor(0, n, body);
  } else {
    for (std::size_t i = 0; i < n; ++i) body(i);
  }
}

// Hilbert sort record: the key's 64-bit words most-significant FIRST (so
// lexicographic word comparison is numeric big-integer comparison) plus
// the point index as tiebreak. (key, index) is a strict total order: the
// sorted permutation is unique, so serial std::sort and the pool's merge
// ladder produce the same order bit for bit at any thread count. Sorting
// contiguous records also beats the old comparator-indirection sort
// (`order` indices chasing keys[a] through two pointer hops) on cache
// behavior — the sort's working set is the record array itself.
template <std::size_t W>
struct HilbertKeyRec {
  std::uint64_t words[W];
  std::uint32_t index;

  friend bool operator<(const HilbertKeyRec& a, const HilbertKeyRec& b) {
    for (std::size_t i = 0; i < W; ++i) {
      if (a.words[i] != b.words[i]) return a.words[i] < b.words[i];
    }
    return a.index < b.index;
  }
};

// Keys are computed in chunks of this many points: one batch
// IndexOfPoints call (a single scratch allocation) per chunk, one
// ParallelFor iteration per chunk.
constexpr std::size_t kHilbertChunk = 4096;

template <std::size_t W>
void HilbertOrderFixed(const PointSet& points, const HilbertCurve& curve,
                       ThreadPool* pool, std::vector<std::size_t>* order) {
  const std::size_t n = points.size();
  std::vector<HilbertKeyRec<W>> recs(n);
  const std::size_t chunks = (n + kHilbertChunk - 1) / kHilbertChunk;
  ForEachIndex(pool, chunks, [&](std::size_t c) {
    const std::size_t begin = c * kHilbertChunk;
    const std::size_t end = std::min(n, begin + kHilbertChunk);
    std::vector<std::uint64_t> words((end - begin) * W);
    curve.IndexOfPoints(points, begin, end, words.data());
    for (std::size_t i = begin; i < end; ++i) {
      HilbertKeyRec<W>& rec = recs[i];
      const std::uint64_t* w = words.data() + (i - begin) * W;
      // IndexOfPoints emits little-endian words; flip to MSW-first.
      for (std::size_t j = 0; j < W; ++j) rec.words[j] = w[W - 1 - j];
      rec.index = static_cast<std::uint32_t>(i);
    }
  });
  ParallelSort(pool, recs.begin(), recs.end(),
               [](const HilbertKeyRec<W>& a, const HilbertKeyRec<W>& b) {
                 return a < b;
               });
  for (std::size_t i = 0; i < n; ++i) (*order)[i] = recs[i].index;
}

// Keys wider than 4 words (dim * 8 bits > 256, i.e. dim > 32) fall back
// to flat key storage with an indirect comparator — still a strict total
// order, still deterministic, just without the record-sort cache win.
void HilbertOrderGeneric(const PointSet& points, const HilbertCurve& curve,
                         ThreadPool* pool, std::vector<std::size_t>* order) {
  const std::size_t n = points.size();
  const std::size_t kw = curve.key_words();
  std::vector<std::uint64_t> keys(n * kw);
  const std::size_t chunks = (n + kHilbertChunk - 1) / kHilbertChunk;
  ForEachIndex(pool, chunks, [&](std::size_t c) {
    const std::size_t begin = c * kHilbertChunk;
    const std::size_t end = std::min(n, begin + kHilbertChunk);
    curve.IndexOfPoints(points, begin, end, keys.data() + begin * kw);
  });
  ParallelSort(pool, order->begin(), order->end(),
               [&](std::size_t a, std::size_t b) {
                 const std::uint64_t* wa = keys.data() + a * kw;
                 const std::uint64_t* wb = keys.data() + b * kw;
                 for (std::size_t i = kw; i-- > 0;) {  // LE: MSW last
                   if (wa[i] != wb[i]) return wa[i] < wb[i];
                 }
                 return a < b;
               });
}

// STR slab recursions below this many points run on the calling thread;
// larger slabs fan out over the pool (and their internal sorts may fan
// out again — ParallelFor nests safely).
constexpr std::size_t kStrParallelCutoff = 8192;

}  // namespace

Status TreeBase::BulkLoad(const PointSet& points,
                          const std::vector<PointId>* ids, ThreadPool* pool) {
  if (points.dim() != dim_) {
    return Status::InvalidArgument("point set dimension mismatch");
  }
  if (ids != nullptr && ids->size() != points.size()) {
    return Status::InvalidArgument("ids size must match points size");
  }
  if (!AllFinite({points.data(), points.size() * dim_})) {
    return Status::InvalidArgument(
        "point set has a NaN or infinite coordinate");
  }
  if (!empty() || root_ != kInvalidNodeId) {
    return Status::FailedPrecondition("BulkLoad requires an empty tree");
  }
  const std::size_t n = points.size();
  if (n == 0) return Status::Ok();
  // HilbertKeyRec carries the tiebreak index in 32 bits (PointId width).
  PARSIM_CHECK(n <= std::numeric_limits<std::uint32_t>::max());

  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  if (options_.bulk_load_order == BulkLoadOrder::kHilbert) {
    // Hilbert-order the points (8 bits of resolution per dimension) by
    // sorting (key, index) records; see HilbertKeyRec above.
    const HilbertCurve curve(dim_, /*bits=*/8);
    switch (curve.key_words()) {
      case 1: HilbertOrderFixed<1>(points, curve, pool, &order); break;
      case 2: HilbertOrderFixed<2>(points, curve, pool, &order); break;
      case 3: HilbertOrderFixed<3>(points, curve, pool, &order); break;
      case 4: HilbertOrderFixed<4>(points, curve, pool, &order); break;
      default: HilbertOrderGeneric(points, curve, pool, &order); break;
    }
  } else {
    // Sort-Tile-Recursive: sort by the first dimension, cut into slabs
    // holding whole columns of leaves, recurse on the remaining
    // dimensions within each slab. The comparator's index tiebreak makes
    // each slab sort a strict total order, so every slab boundary — and
    // with it the whole tiling — is identical at any thread count.
    const std::size_t leaf_points = std::max<std::size_t>(
        1, static_cast<std::size_t>(options_.bulk_load_fill *
                                    static_cast<double>(leaf_capacity_)));
    std::function<void(std::size_t, std::size_t, std::size_t)> tile =
        [&](std::size_t begin, std::size_t end, std::size_t dim_index) {
          const std::size_t count = end - begin;
          if (count <= leaf_points || dim_index >= dim_) return;
          ParallelSort(pool, order.begin() + static_cast<std::ptrdiff_t>(begin),
                       order.begin() + static_cast<std::ptrdiff_t>(end),
                       [&points, dim_index](std::size_t a, std::size_t b) {
                         const Scalar va = points[a][dim_index];
                         const Scalar vb = points[b][dim_index];
                         if (va != vb) return va < vb;
                         return a < b;
                       });
          if (dim_index + 1 >= dim_) return;  // last dim: sorted run packs
          const double leaves = std::ceil(static_cast<double>(count) /
                                          static_cast<double>(leaf_points));
          const double dims_left = static_cast<double>(dim_ - dim_index);
          const auto slabs = static_cast<std::size_t>(
              std::ceil(std::pow(leaves, 1.0 / dims_left)));
          const std::size_t slab_size = (count + slabs - 1) / slabs;
          std::vector<std::pair<std::size_t, std::size_t>> ranges;
          for (std::size_t s = begin; s < end; s += slab_size) {
            ranges.emplace_back(s, std::min(end, s + slab_size));
          }
          // Slabs are disjoint subranges of `order`: recurse over the
          // pool when the range is worth splitting, serially otherwise.
          ForEachIndex(
              count >= kStrParallelCutoff ? pool : nullptr, ranges.size(),
              [&](std::size_t s) {
                tile(ranges[s].first, ranges[s].second, dim_index + 1);
              });
        };
    tile(0, n, 0);
  }

  // Group sizes for one packed level: as close to the target fill as
  // possible, spread evenly so every group respects the minimum fill
  // (a single group — the future root — may underfill).
  const auto pack_groups = [](std::size_t total, std::size_t fill,
                              std::size_t min_fill, std::size_t capacity) {
    PARSIM_CHECK(min_fill <= fill && fill <= capacity);
    std::size_t groups = (total + fill - 1) / fill;
    // Even distribution must keep every group >= min_fill; shrink the
    // group count if the remainder would dilute groups below it.
    if (groups > 1 && total / groups < min_fill) {
      groups = std::max<std::size_t>(1, total / min_fill);
    }
    // ...but never exceed capacity.
    while ((total + groups - 1) / groups > capacity) ++groups;
    std::vector<std::size_t> sizes(groups, total / groups);
    for (std::size_t i = 0; i < total % groups; ++i) ++sizes[i];
    return sizes;
  };

  // Pack the leaf level. Group sizes and start offsets are pure
  // functions of (n, fill, capacity) — no parallel state — so the
  // groups can be filled in any order: each writes only its own node
  // and that node's block.
  const auto leaf_fill = std::max<std::size_t>(
      MinEntriesOf(Node{}),  // Node{} is a leaf (level 0)
      static_cast<std::size_t>(options_.bulk_load_fill *
                               static_cast<double>(leaf_capacity_)));
  const auto leaf_sizes =
      pack_groups(n, leaf_fill, MinEntriesOf(Node{}), leaf_capacity_);
  std::vector<std::size_t> leaf_starts(leaf_sizes.size());
  std::size_t start = 0;
  for (std::size_t g = 0; g < leaf_sizes.size(); ++g) {
    leaf_starts[g] = start;
    start += leaf_sizes[g];
  }
  PARSIM_CHECK(start == n);
  const NodeId first_leaf = AllocateNodes(/*level=*/0, leaf_sizes.size());
  ForEachIndex(pool, leaf_sizes.size(), [&](std::size_t g) {
    Node& leaf = *nodes_[first_leaf + g];
    leaf.entries.reserve(leaf_sizes[g]);
    for (std::size_t i = 0; i < leaf_sizes[g]; ++i) {
      const std::size_t src = order[leaf_starts[g] + i];
      NodeEntry e;
      e.rect = Rect::AroundPoint(points[src]);
      e.child = ids != nullptr ? (*ids)[src] : static_cast<PointId>(src);
      leaf.entries.push_back(std::move(e));
    }
    leaf.block.BuildFrom(leaf.entries, dim_, quantize_leaves_);
  });
  std::vector<NodeId> level_nodes(leaf_sizes.size());
  std::iota(level_nodes.begin(), level_nodes.end(), first_leaf);

  // Build directory levels bottom-up. Each level is a barrier: its
  // groups read only fully-built child nodes (ComputeMbr is pure) and
  // write only their own node and its image, so the groups fan out over
  // the pool.
  int level = 1;
  Node dir_probe;
  dir_probe.level = 1;
  const std::size_t dir_min = MinEntriesOf(dir_probe);
  const auto dir_fill = std::max<std::size_t>(
      2, static_cast<std::size_t>(options_.bulk_load_fill *
                                  static_cast<double>(dir_capacity_)));
  while (level_nodes.size() > 1) {
    const auto sizes =
        pack_groups(level_nodes.size(), dir_fill, dir_min, dir_capacity_);
    std::vector<std::size_t> child_starts(sizes.size());
    std::size_t child_index = 0;
    for (std::size_t g = 0; g < sizes.size(); ++g) {
      child_starts[g] = child_index;
      child_index += sizes[g];
    }
    PARSIM_CHECK(child_index == level_nodes.size());
    const NodeId first_dir = AllocateNodes(level, sizes.size());
    ForEachIndex(pool, sizes.size(), [&](std::size_t g) {
      Node& dir = *nodes_[first_dir + g];
      dir.entries.reserve(sizes[g]);
      for (std::size_t i = 0; i < sizes[g]; ++i) {
        const NodeId child = level_nodes[child_starts[g] + i];
        NodeEntry e;
        e.rect = nodes_[child]->ComputeMbr(dim_);
        e.child = child;
        dir.entries.push_back(std::move(e));
      }
      dir.image.BuildFrom(dir.entries, dim_);
    });
    std::vector<NodeId> next_level(sizes.size());
    std::iota(next_level.begin(), next_level.end(), first_dir);
    level_nodes = std::move(next_level);
    ++level;
  }
  root_ = level_nodes.front();
  size_ = n;
  ResetWriteState();
  return Status::Ok();
}

std::vector<NodeId> TreeBase::FindLeafPath(PointView p, PointId id) const {
  if (root_ == kInvalidNodeId) return {};
  const Rect probe = Rect::AroundPoint(p);
  std::vector<NodeId> path;
  // Depth-first search with an explicit path stack (several subtrees may
  // cover the probe point).
  std::function<bool(NodeId)> descend = [&](NodeId nid) -> bool {
    path.push_back(nid);
    const Node& node = *nodes_[nid];
    if (node.IsLeaf()) {
      for (const NodeEntry& e : node.entries) {
        if (e.child == id && e.rect == probe) return true;
      }
    } else {
      for (const NodeEntry& e : node.entries) {
        if (!e.rect.ContainsRect(probe)) continue;
        if (descend(e.child)) return true;
      }
    }
    path.pop_back();
    return false;
  };
  if (!descend(root_)) return {};
  return path;
}

Status TreeBase::Delete(PointView p, PointId id) {
  changed_leaves_.clear();
  if (p.size() != dim_) {
    return Status::InvalidArgument("point dimension mismatch");
  }
  const std::vector<NodeId> path = FindLeafPath(p, id);
  if (path.empty()) return Status::NotFound("record not stored");
  Node& leaf = *nodes_[path.back()];
  const Rect probe = Rect::AroundPoint(p);
  bool removed = false;
  for (std::size_t i = 0; i < leaf.entries.size(); ++i) {
    if (leaf.entries[i].child == id && leaf.entries[i].rect == probe) {
      leaf.entries.erase(leaf.entries.begin() +
                         static_cast<std::ptrdiff_t>(i));
      removed = true;
      break;
    }
  }
  PARSIM_CHECK(removed);
  NoteEntriesChanged(path.back());
  --size_;
  CondenseTree(path);
  SyncChangedNodes();
  return Status::Ok();
}

void TreeBase::CondenseTree(const std::vector<NodeId>& path) {
  // Walk bottom-up: dissolve underfull non-root nodes, collecting their
  // surviving entries (with the level they must be reinserted at).
  struct Orphan {
    NodeEntry entry;
    int level;
  };
  std::vector<Orphan> orphans;
  for (std::size_t i = path.size(); i-- > 1;) {
    Node& node = *nodes_[path[i]];
    Node& parent = *nodes_[path[i - 1]];
    if (node.entries.size() < MinEntriesOf(node)) {
      // Dissolve: unhook from the parent, queue the entries.
      for (NodeEntry& e : node.entries) {
        orphans.push_back(Orphan{std::move(e), node.level});
      }
      node.entries.clear();
      NoteEntriesChanged(path[i]);
      bool unhooked = false;
      for (std::size_t j = 0; j < parent.entries.size(); ++j) {
        if (parent.entries[j].child == path[i]) {
          parent.entries.erase(parent.entries.begin() +
                               static_cast<std::ptrdiff_t>(j));
          unhooked = true;
          break;
        }
      }
      PARSIM_CHECK(unhooked);
      NoteEntriesChanged(path[i - 1]);
    } else {
      // Keep, but tighten the parent entry's MBR.
      const Rect mbr = node.ComputeMbr(dim_);
      for (NodeEntry& e : parent.entries) {
        if (e.child == path[i]) {
          if (!(e.rect == mbr)) {
            e.rect = mbr;
            NoteEntriesChanged(path[i - 1]);
          }
          break;
        }
      }
    }
  }
  // The bottom-up loop above already tightened every surviving
  // parent-child MBR along the path; now shrink the root. A directory
  // root with one child hands over; an empty root empties the tree.
  while (root_ != kInvalidNodeId) {
    Node& root_node = *nodes_[root_];
    if (!root_node.IsLeaf() && root_node.entries.size() == 1) {
      root_ = root_node.entries[0].child;
      continue;
    }
    if (root_node.entries.empty()) {
      root_ = kInvalidNodeId;
    }
    break;
  }

  // Reinsert orphans. Subtree entries go back at their original level
  // when the tree is still tall enough; otherwise (the tree shrank) the
  // subtree is unpacked into its points, which always reinsert cleanly.
  std::function<void(const NodeEntry&, int, std::vector<NodeEntry>*)>
      collect_points = [&](const NodeEntry& entry, int level,
                           std::vector<NodeEntry>* out) {
        if (level == 0) {
          out->push_back(entry);
          return;
        }
        const Node& child = *nodes_[entry.child];
        for (const NodeEntry& e : child.entries) {
          collect_points(e, level - 1, out);
        }
      };
  // Deepest (lowest-level) entries first so the tree regains height
  // before higher-level subtrees arrive.
  std::sort(orphans.begin(), orphans.end(),
            [](const Orphan& a, const Orphan& b) { return a.level < b.level; });
  for (Orphan& orphan : orphans) {
    if (root_ == kInvalidNodeId) {
      root_ = AllocateNode(0);
    }
    if (orphan.level < height()) {
      std::vector<bool> reinsert_done(static_cast<std::size_t>(height()) + 2,
                                      false);
      InsertEntryAtLevel(std::move(orphan.entry), orphan.level,
                         &reinsert_done);
      continue;
    }
    std::vector<NodeEntry> points;
    collect_points(orphan.entry, orphan.level, &points);
    for (NodeEntry& e : points) {
      std::vector<bool> reinsert_done(static_cast<std::size_t>(height()) + 2,
                                      false);
      InsertEntryAtLevel(std::move(e), /*target_level=*/0, &reinsert_done);
    }
  }
}

std::vector<PointId> TreeBase::RangeQuery(const Rect& query) const {
  std::vector<PointId> out;
  if (root_ == kInvalidNodeId) return out;
  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    DiskRoute route;
    const Node& node = AccessNode(id, &route);
    if (node.IsLeaf()) {
      // Sweep the SoA block instead of the AoS entries: a leaf entry's
      // rect is the degenerate rect of its point, so Intersects(e.rect)
      // is exactly Contains(point), and the block preserves entry order.
      // The float pass serves quantized blocks too (an SQ8 code-interval
      // prefilter measured slower than it), and a containment test
      // charges no simulated distance computation.
      const LeafBlock& block = node.block;
      for (std::size_t i = 0; i < block.count; ++i) {
        if (query.Contains(block.row(i))) out.push_back(block.ids[i]);
      }
      Counters sweep;
      sweep.leaf_bytes_scanned = block.count * block.dim * sizeof(Scalar);
      ChargeLeafSweep(route, sweep);
      continue;
    }
    for (const NodeEntry& e : node.entries) {
      if (query.Intersects(e.rect)) stack.push_back(e.child);
    }
  }
  return out;
}

bool TreeBase::Contains(PointView p, PointId id) const {
  if (root_ == kInvalidNodeId) return false;
  const Rect probe = Rect::AroundPoint(p);
  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    const NodeId nid = stack.back();
    stack.pop_back();
    const Node& node = AccessNode(nid);
    for (const NodeEntry& e : node.entries) {
      if (!e.rect.ContainsRect(probe)) continue;
      if (node.IsLeaf()) {
        if (e.child == id && e.rect == probe) return true;
      } else {
        stack.push_back(e.child);
      }
    }
  }
  return false;
}

std::uint64_t TreeBase::DataPages() const {
  const std::uint64_t cached =
      data_pages_cache_.load(std::memory_order_relaxed);
  if (cached != 0 || root_ == kInvalidNodeId) return cached;
  std::uint64_t pages = 0;
  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    const Node& node = *nodes_[stack.back()];
    stack.pop_back();
    if (node.IsLeaf()) {
      pages += node.pages;
    } else {
      for (const NodeEntry& e : node.entries) stack.push_back(e.child);
    }
  }
  data_pages_cache_.store(pages, std::memory_order_relaxed);
  return pages;
}

TreeBase::Stats TreeBase::ComputeStats() const {
  Stats stats;
  stats.height = height();
  if (root_ == kInvalidNodeId) return stats;
  std::size_t leaf_entries = 0, dir_entries = 0, dir_nodes = 0;
  std::vector<NodeId> stack = {root_};
  while (!stack.empty()) {
    const Node& node = *nodes_[stack.back()];
    stack.pop_back();
    ++stats.num_nodes;
    stats.total_pages += node.pages;
    if (node.pages > 1) ++stats.num_supernodes;
    if (node.IsLeaf()) {
      ++stats.num_leaves;
      leaf_entries += node.entries.size();
    } else {
      ++dir_nodes;
      dir_entries += node.entries.size();
      for (const NodeEntry& e : node.entries) stack.push_back(e.child);
    }
  }
  if (stats.num_leaves > 0) {
    stats.avg_leaf_fill =
        static_cast<double>(leaf_entries) /
        (static_cast<double>(stats.num_leaves * leaf_capacity_));
  }
  if (dir_nodes > 0) {
    stats.avg_dir_fill = static_cast<double>(dir_entries) /
                         (static_cast<double>(dir_nodes * dir_capacity_));
  }
  return stats;
}

Status TreeBase::ValidateInvariants() const {
  if (root_ == kInvalidNodeId) {
    if (size_ != 0) return Status::Internal("empty tree with nonzero size");
    return Status::Ok();
  }
  std::size_t points_seen = 0;
  Status s = ValidateSubtree(root_, nodes_[root_]->level, /*is_root=*/true,
                             &points_seen);
  if (!s.ok()) return s;
  if (points_seen != size_) {
    return Status::Internal("stored point count does not match size()");
  }
  return Status::Ok();
}

Status TreeBase::ValidateSubtree(NodeId id, int expected_level, bool is_root,
                                 std::size_t* points_seen) const {
  if (id >= nodes_.size()) return Status::Internal("dangling node id");
  const Node& node = *nodes_[id];
  if (node.level != expected_level) {
    return Status::Internal("node level inconsistent with tree structure");
  }
  if (node.entries.size() > CapacityOf(node)) {
    return Status::Internal("node exceeds its capacity");
  }
  if (!is_root && node.entries.size() < MinEntriesOf(node)) {
    return Status::Internal("non-root node under minimum fill");
  }
  if (is_root && node.entries.empty() && size_ != 0) {
    return Status::Internal("root empty but tree non-empty");
  }
  if (node.IsLeaf()) {
    for (const NodeEntry& e : node.entries) {
      for (std::size_t i = 0; i < dim_; ++i) {
        if (e.rect.lo(i) != e.rect.hi(i)) {
          return Status::Internal("leaf entry rect is not a point");
        }
      }
    }
    LeafBlock fresh;
    fresh.BuildFrom(node.entries, dim_, quantize_leaves_);
    if (!(node.block == fresh)) {
      return Status::Internal("leaf block disagrees with its entries");
    }
    *points_seen += node.entries.size();
    return Status::Ok();
  }
  DirImage fresh;
  fresh.BuildFrom(node.entries, dim_);
  if (!(node.image == fresh)) {
    return Status::Internal("directory image disagrees with its entries");
  }
  for (const NodeEntry& e : node.entries) {
    if (e.child >= nodes_.size()) {
      return Status::Internal("dangling child id");
    }
    const Rect child_mbr = nodes_[e.child]->ComputeMbr(dim_);
    if (!(e.rect == child_mbr)) {
      return Status::Internal("directory entry rect is not the child MBR");
    }
    Status s = ValidateSubtree(e.child, node.level - 1, /*is_root=*/false,
                               points_seen);
    if (!s.ok()) return s;
  }
  return Status::Ok();
}

}  // namespace parsim
