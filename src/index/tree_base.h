// Common machinery of the R*-tree and X-tree: node storage on a simulated
// disk, R* insertion (ChooseSubtree, forced reinsert), topological R*
// split computation, range queries, bulk loading and invariant checks.
//
// Subclasses supply the split policy only: the R*-tree applies the
// topological split unconditionally, the X-tree falls back to an
// overlap-minimal split and, when none exists, to supernodes
// (Berchtold/Keim/Kriegel, VLDB'96).

#ifndef PARSIM_SRC_INDEX_TREE_BASE_H_
#define PARSIM_SRC_INDEX_TREE_BASE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/geometry/point.h"
#include "src/geometry/rect.h"
#include "src/index/leaf_block.h"
#include "src/index/leaf_sweep.h"
#include "src/index/node.h"
#include "src/io/disk.h"
#include "src/util/status.h"

namespace parsim {

class ThreadPool;

/// How BulkLoad orders points before packing them into leaves.
enum class BulkLoadOrder {
  /// Hilbert-curve order (default): best locality in most settings.
  kHilbert,
  /// Sort-Tile-Recursive (Leutenegger et al.): recursive slab sorting.
  kStr,
};

/// Tuning parameters shared by the tree family.
struct TreeOptions {
  /// Minimum node fill as a fraction of capacity (R*: 40%).
  double min_fill = 0.4;
  /// Fraction of entries removed by forced reinsert (R*: 30%).
  double reinsert_fraction = 0.3;
  /// Enable R* forced reinsert on first overflow per level.
  bool forced_reinsert = true;
  /// Leaf fill fraction used by BulkLoad.
  double bulk_load_fill = 0.7;
  /// Packing order used by BulkLoad.
  BulkLoadOrder bulk_load_order = BulkLoadOrder::kHilbert;
};

/// Base class of RStarTree and XTree.
class TreeBase {
 public:
  /// The tree stores its nodes on `disk` (not owned; must outlive the
  /// tree). Every node touched by a query charges page reads to it.
  TreeBase(std::size_t dim, SimulatedDisk* disk, TreeOptions options = {});
  virtual ~TreeBase() = default;

  TreeBase(const TreeBase&) = delete;
  TreeBase& operator=(const TreeBase&) = delete;

  std::size_t dim() const { return dim_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Number of allocated node slots (valid NodeIds are < num_nodes();
  /// includes dissolved nodes, whose slots are never reused).
  std::size_t num_nodes() const { return nodes_.size(); }
  /// Number of levels (0 for the empty tree; 1 = root is a leaf).
  int height() const;

  /// Total data (leaf) pages reachable from the root — the page count a
  /// query would be charged for reading this tree's entire data set.
  /// Cached after the first call; every structural change drops the
  /// cache (same hooks as the leaf-block cache). Safe under concurrent
  /// readers: the recompute is idempotent and the slot is atomic.
  std::uint64_t DataPages() const;

  std::size_t leaf_capacity_per_page() const { return leaf_capacity_; }
  std::size_t dir_capacity_per_page() const { return dir_capacity_; }
  const TreeOptions& options() const { return options_; }
  SimulatedDisk* disk() const { return disk_; }

  /// Inserts one data point. Ids need not be unique, but queries report
  /// them verbatim, so unique ids are advisable. A point with a NaN or
  /// infinite coordinate is rejected with kInvalidArgument and the tree
  /// is left untouched.
  Status Insert(PointView p, PointId id);

  /// Deletes the exact record (p, id). Returns kNotFound if absent,
  /// before touching any node. Underfull nodes are condensed R*-style:
  /// the node is dissolved and its entries reinserted. (Node slots of
  /// dissolved nodes are not recycled; an all-deletes workload grows the
  /// node table.)
  Status Delete(PointView p, PointId id);

  /// Ids of the leaves whose entry lists the last Insert or Delete
  /// changed: the insertion targets (a fresh root leaf among them), both
  /// halves of every leaf split, forced-reinsert sources, the delete
  /// source and a leaf CondenseTree dissolved. Every statement that
  /// rewrites a leaf's entries records it, so an id may repeat.
  /// Directory edits (MBR refresh, root growth and shrink, supernode
  /// growth) change no leaf. Empty after a failed call; BulkLoad and
  /// deserialization, which invalidate derived state wholesale, clear it.
  /// Node ids are never recycled, so every other leaf keeps the entries,
  /// MBR and disk route it had, and ids at or past the previous
  /// num_nodes() are new nodes. Derived per-leaf caches (the leaf blocks,
  /// the engine's route memo) drop just these entries.
  const std::vector<NodeId>& changed_leaves() const {
    return changed_leaves_;
  }

  /// Bulk loads an empty tree by Hilbert-order packing: points are sorted
  /// along a Hilbert curve and packed into leaves at options().bulk_load
  /// fill, then directory levels are built bottom-up. The id of points[i]
  /// is ids[i] when `ids` is given (must match points.size()), else i.
  ///
  /// With a non-null `pool` every phase — key computation, the
  /// (key, index) sort, STR slab tiling, leaf packing and per-level MBR
  /// construction — fans out over the pool's workers, and the resulting
  /// tree is BIT-IDENTICAL to the serial build at any thread count:
  /// the sort keys carry the point index as a tiebreak (a strict total
  /// order has exactly one sorted permutation), every packing boundary
  /// is a pure function of (n, fill, capacity), and page-write
  /// accounting is batched per level so simulated disk counters match
  /// the serial ones exactly. See DESIGN.md "Parallel bulk load".
  Status BulkLoad(const PointSet& points,
                  const std::vector<PointId>* ids = nullptr,
                  ThreadPool* pool = nullptr);

  /// All point ids whose point lies inside `query` (inclusive). Charges
  /// page accesses for every node visited.
  std::vector<PointId> RangeQuery(const Rect& query) const;

  /// True iff the exact record (p, id) is stored. Charges accesses.
  bool Contains(PointView p, PointId id) const;

  /// Root node id (kInvalidNodeId when empty).
  NodeId root_id() const { return root_; }

  /// Where a node access lands, plus its fault-handling annotations. The
  /// default route (no resolver) is the tree's own disk, healthy.
  struct DiskRoute {
    SimulatedDisk* disk = nullptr;
    /// Timed-out read attempts against a failed primary, charged to
    /// `disk` (the replica) before the failover read itself.
    std::uint32_t retry_attempts = 0;
    /// True when `disk` is the replica of a failed primary; the access
    /// is then also tallied as replica pages.
    bool failover = false;
    /// True when no healthy copy exists; `disk` is the failed primary,
    /// and the access is tallied as unavailable.
    bool unavailable = false;
  };

  /// Routes a node's charges to a disk. The default (unset resolver)
  /// charges everything to the tree's own disk; the shared-tree parallel
  /// engine resolves leaves to the disk owning their page (or, for a
  /// failed disk, its replica) and directory nodes to the query host.
  using NodeDiskResolver = std::function<DiskRoute(const Node&)>;

  /// Installs (or clears, with nullptr) the charge-routing policy.
  void set_node_disk_resolver(NodeDiskResolver resolver) {
    node_disk_resolver_ = std::move(resolver);
  }

  /// Resolves where `node`'s charges land without reading anything: the
  /// installed resolver's route, or the tree's own disk (healthy) when no
  /// resolver is set. The batched k-NN scheduler uses this to attribute a
  /// coalesced page fetch to the right disk for every query in a group.
  DiskRoute ResolveRoute(const Node& node) const;

  /// Reads a node, charging its pages to the resolved disk. Directory
  /// and data pages are metered separately, matching the paper's
  /// accounting.
  const Node& AccessNode(NodeId id) const;

  /// The SoA block of `leaf`, built lazily and cached until the next
  /// structural change. Safe for concurrent queries; see LeafBlockCache.
  const LeafBlock& LeafBlockOf(const Node& leaf) const {
    return leaf_blocks_.Get(leaf, dim_);
  }

  /// Charges `n` distance computations to the disk that serves `node`
  /// (the CPU doing the work sits next to that disk).
  void ChargeNodeDistances(const Node& node, std::uint64_t n) const;

  /// Charges one leaf sweep's outcome to the disk that serves `node`:
  /// exact re-ranks meter simulated CPU like ChargeNodeDistances, and
  /// the prune/re-rank/byte counters land in the same stats sink.
  void ChargeLeafSweep(const Node& node, const LeafSweepStats& sweep) const;

  /// Whether leaf blocks carry SQ8 mirrors for error-bounded pruned
  /// sweeps (src/index/leaf_sweep.h). Mutation-side toggle — it
  /// invalidates the block cache, so it must not race with queries
  /// (same contract as Insert). Results stay bit-identical either way;
  /// only sweep cost and the quantized counters change.
  void set_quantized_leaf_blocks(bool on) {
    leaf_blocks_.set_quantize(on);
    InvalidateLeafBlocks();
  }
  bool quantized_leaf_blocks() const { return leaf_blocks_.quantize(); }

  /// Prebuilds the SoA block (and, when enabled, the SQ8 mirror) of
  /// every leaf, over `pool` when given (nullptr runs on the caller).
  /// Leaf blocks are derived state built lazily on first access, so
  /// without warming the first query wave silently pays the
  /// epoch-cache construction; benchmarks and the throughput harness
  /// call this so they measure steady state. Charges nothing — block
  /// builds never meter pages or CPU (only AccessNode does) — and is
  /// safe to omit entirely.
  void WarmLeafBlocks(ThreadPool* pool = nullptr) const;

  /// Reads a node without charging (tests / diagnostics only).
  const Node& PeekNode(NodeId id) const;

  /// Structural summary.
  struct Stats {
    std::size_t num_nodes = 0;
    std::size_t num_leaves = 0;
    std::size_t num_supernodes = 0;
    std::size_t total_pages = 0;
    int height = 0;
    double avg_leaf_fill = 0.0;
    double avg_dir_fill = 0.0;
  };
  Stats ComputeStats() const;

  /// Full structural audit: MBR containment and exactness, level
  /// consistency, fill bounds, reachability, stored-point count.
  Status ValidateInvariants() const;

  virtual std::string name() const = 0;

 protected:
  /// A computed partition of an overflowing node's entries.
  struct SplitResult {
    std::vector<NodeEntry> left;
    std::vector<NodeEntry> right;
    int axis = -1;
    double overlap_volume = 0.0;
  };

  /// Split policy. Partitions `node`'s entries and returns the new
  /// sibling's id, or kInvalidNodeId if the node absorbed the overflow
  /// in place (X-tree supernode extension).
  virtual NodeId SplitNode(NodeId node_id) = 0;

  /// Capacity of `node` in entries (pages * per-page capacity).
  std::size_t CapacityOf(const Node& node) const;
  /// Minimum entries required in `node` (min_fill of one page).
  std::size_t MinEntriesOf(const Node& node) const;
  bool Overflowing(const Node& node) const;

  /// Classic R* topological split: axis by minimal margin sum, then the
  /// distribution with minimal overlap (ties: minimal area).
  SplitResult ComputeRStarSplit(const Node& node) const;

  /// Creates a sibling from `split`, leaving the left part in `node_id`.
  /// Returns the sibling id. `axis` is recorded in both split histories.
  NodeId ApplySplit(NodeId node_id, SplitResult split);

  Node& MutableNode(NodeId id);
  NodeId AllocateNode(int level);
  /// Allocates `count` nodes at `level` with consecutive ids, returning
  /// the first id, and charges their page writes as ONE batched
  /// disk_->WritePages(count) — by the simulated-disk accounting
  /// (Sink().pages_written += pages) exactly equal to count single-page
  /// writes, so bulk load's per-level batching leaves every counter
  /// bit-identical to the node-at-a-time serial path.
  NodeId AllocateNodes(int level, std::size_t count);

  // Serialization restores private structure directly.
  friend Status LoadTree(TreeBase* tree, const std::string& path);

  std::size_t dim_;
  SimulatedDisk* disk_;
  TreeOptions options_;
  std::size_t leaf_capacity_;
  std::size_t dir_capacity_;
  std::vector<std::unique_ptr<Node>> nodes_;
  NodeId root_ = kInvalidNodeId;
  std::size_t size_ = 0;
  NodeDiskResolver node_disk_resolver_;
  LeafBlockCache leaf_blocks_;

  /// Marks every cached leaf block stale and drops the data-page count.
  /// Wholesale mutations (BulkLoad, deserialization) and the quantize
  /// toggle call this before returning control to queries.
  void InvalidateLeafBlocks() {
    changed_leaves_.clear();
    leaf_blocks_.Invalidate(nodes_.size());
    data_pages_cache_.store(0, std::memory_order_relaxed);
  }

  /// Marks stale only the blocks of changed_leaves_ and drops the
  /// data-page count. Insert and Delete call this before returning.
  void InvalidateChangedLeafBlocks() {
    leaf_blocks_.Invalidate(changed_leaves_, nodes_.size());
    data_pages_cache_.store(0, std::memory_order_relaxed);
  }

  /// Records that `id`'s entry list changed, if `id` is a leaf.
  void NoteEntriesChanged(NodeId id) {
    if (nodes_[id]->IsLeaf()) changed_leaves_.push_back(id);
  }

  /// See changed_leaves(); cleared at the start of Insert and Delete.
  std::vector<NodeId> changed_leaves_;

  /// Cached DataPages() sum; 0 = unknown (a non-empty tree has >= 1).
  mutable std::atomic<std::uint64_t> data_pages_cache_{0};

 private:
  // One top-down insertion of `entry` at `target_level`, with R* overflow
  // treatment. `reinsert_done` has one flag per level for the enclosing
  // logical insertion.
  void InsertEntryAtLevel(NodeEntry entry, int target_level,
                          std::vector<bool>* reinsert_done);

  // R* ChooseSubtree from the root down to `target_level`; returns the
  // path of node ids (root first, target node last).
  std::vector<NodeId> ChoosePath(const Rect& rect, int target_level) const;

  // Recomputes parent-entry MBRs bottom-up along `path`.
  void RefreshPathMbrs(const std::vector<NodeId>& path);

  // Forced reinsert of the configured fraction of `node_id`'s entries.
  void ForcedReinsert(NodeId node_id, const std::vector<NodeId>& path,
                      std::vector<bool>* reinsert_done);

  // Replaces the root when it splits.
  void GrowRoot(NodeId left, NodeId right);

  Status ValidateSubtree(NodeId id, int expected_level, bool is_root,
                         std::size_t* points_seen) const;

  // Finds the path (root..leaf) to the leaf holding the exact record;
  // empty if absent.
  std::vector<NodeId> FindLeafPath(PointView p, PointId id) const;

  // R* CondenseTree after a removal along `path`: dissolves underfull
  // nodes, reinserts their entries, shrinks the root.
  void CondenseTree(const std::vector<NodeId>& path);
};

}  // namespace parsim

#endif  // PARSIM_SRC_INDEX_TREE_BASE_H_
