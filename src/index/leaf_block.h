// Structure-of-arrays mirror of a leaf page.
//
// A leaf Node stores its points AoS — each NodeEntry carries a degenerate
// Rect (lo == hi == the point) plus the point id — which keeps the
// split/MBR machinery uniform across levels but scatters the coordinates
// a page scan needs across Rect allocations. A LeafBlock peels them out
// into two dense arrays (coords: count x dim row-major scalars; ids:
// count PointIds), so a page scan is one contiguous sweep the one-to-many
// and many-to-many distance kernels (Metric::ComparableMany /
// ComparableBlock) stream over without a per-query gather.
//
// Blocks are derived state: LeafBlockCache builds them lazily on first
// access. An insert or delete marks stale only the blocks of the leaves
// whose entry lists it changed; a bulk load, a deserialize or a
// quantize toggle invalidates them wholesale. The tree's
// concurrency contract — queries never race with mutations — makes one
// epoch counter plus a per-slot built epoch sufficient: a wholesale
// change bumps the epoch, a per-leaf change resets that slot's built
// epoch, both between query waves, and concurrent readers synchronize on
// the per-slot atomic.

#ifndef PARSIM_SRC_INDEX_LEAF_BLOCK_H_
#define PARSIM_SRC_INDEX_LEAF_BLOCK_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/geometry/point.h"
#include "src/geometry/sq8.h"
#include "src/index/node.h"

namespace parsim {

/// The SoA layout of one leaf page: coordinates and ids of its points in
/// entry order, contiguous.
struct LeafBlock {
  std::size_t count = 0;
  std::size_t dim = 0;
  /// count * dim scalars, row-major (point i at coords[i * dim]).
  std::vector<Scalar> coords;
  /// count point ids, parallel to coords.
  std::vector<PointId> ids;

  /// Opt-in SQ8 mirror of `coords` (src/geometry/sq8.h): per-block
  /// lattice plus uint8 codes, built together with the block when the
  /// owning cache has quantization enabled, so mirror and floats are
  /// always of the same structural epoch. Empty when has_sq8 is false.
  Sq8Mirror sq8;
  bool has_sq8 = false;

  PointView row(std::size_t i) const {
    return {coords.data() + i * dim, dim};
  }

  /// Rebuilds this block from `leaf` (entries in order); with `quantize`
  /// also (re)builds the SQ8 mirror from the gathered coordinates.
  void BuildFrom(const Node& leaf, std::size_t dimension,
                 bool quantize = false);
};

/// Per-tree cache of leaf blocks, safe for concurrent read-only queries.
///
/// Thread-safety contract (the tree family's): any number of concurrent
/// Get() calls may race with each other — the first one through a slot's
/// build mutex materializes the block, the rest wait or take the fast
/// atomic-epoch path — but neither Invalidate overload may race with
/// Get(); they are called from the tree's mutating entry points, which
/// are documented as exclusive with queries (like SetFaultPlan / Insert
/// / Remove).
class LeafBlockCache {
 public:
  /// Marks every cached block stale in O(1) and makes room for
  /// `num_nodes` slots. For wholesale changes, from the mutation side.
  void Invalidate(std::size_t num_nodes);

  /// Marks only the blocks of `leaves` stale and makes room for
  /// `num_nodes` slots (new slots start stale). For changes confined to
  /// those leaves' entry lists, from the mutation side.
  void Invalidate(const std::vector<NodeId>& leaves, std::size_t num_nodes);

  /// Whether rebuilt blocks carry SQ8 mirrors. Flip from the mutation
  /// side only (TreeBase::set_quantized_leaf_blocks invalidates
  /// alongside, so no block built under the old setting survives).
  void set_quantize(bool on) { quantize_ = on; }
  bool quantize() const { return quantize_; }

  /// The current block of `leaf`, building it if stale or absent.
  const LeafBlock& Get(const Node& leaf, std::size_t dim) const;

 private:
  struct Slot {
    /// Epoch the block was built at, 0 when stale; acquire/release pairs
    /// with the build below so a reader that sees the current epoch also
    /// sees the fully built block.
    std::atomic<std::uint64_t> built_epoch{0};
    std::mutex build_mutex;
    LeafBlock block;
  };

  void Grow(std::size_t num_nodes);

  // unique_ptr slots: Invalidate() may grow the vector, and Slot holds
  // a mutex/atomic (neither movable).
  std::vector<std::unique_ptr<Slot>> slots_;
  /// Bumped by the wholesale Invalidate; slots at an older epoch rebuild
  /// on access. Starts above the stale built_epoch of 0 so fresh and
  /// per-leaf invalidated slots count as stale.
  std::uint64_t epoch_ = 1;
  /// Mutation-side setting read by Get's (re)builds.
  bool quantize_ = false;
};

}  // namespace parsim

#endif  // PARSIM_SRC_INDEX_LEAF_BLOCK_H_
