// On-"disk" node layout of the R*-tree / X-tree family.
//
// Nodes live on a simulated disk: a directory node or leaf normally
// occupies one 4 KB page; X-tree supernodes span several contiguous
// pages and charge that many page accesses when read.

#ifndef PARSIM_SRC_INDEX_NODE_H_
#define PARSIM_SRC_INDEX_NODE_H_

#include <cstdint>
#include <vector>

#include "src/geometry/point.h"
#include "src/geometry/rect.h"
#include "src/io/disk_model.h"

namespace parsim {

/// Identifier of a node within one tree.
using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNodeId = static_cast<NodeId>(-1);

/// One slot of a node: an MBR plus either a child node (directory levels)
/// or a data object id (leaf level). Leaf entries carry the degenerate
/// rectangle of their point, which keeps the split/MBR machinery uniform
/// across levels.
struct NodeEntry {
  Rect rect;
  std::uint32_t child = 0;  // NodeId (directory) or PointId (leaf)

  /// The point of a leaf entry (its rect is degenerate).
  PointView AsPoint() const { return rect.lo(); }
};

/// Structure-of-arrays image of a directory node's children, in entry
/// order: the child ids, then the child boxes dimension-major, so MINDIST
/// from a query to every child is one Metric::MinDistMany call over two
/// contiguous row sets instead of two heap-allocated Rect vectors per
/// child. The entries stay the source of truth (splits, MBR refreshes
/// and the on-disk format use them); the image is derived from them by
/// BuildFrom — in BulkLoad, LoadTree, and at the end of every Insert and
/// Delete for the directory nodes whose entries it changed — so between
/// writes it equals a fresh build bit for bit (TreeBase::
/// ValidateInvariants checks this). Leaves keep an empty image.
struct DirImage {
  /// children[j] is entries[j].child.
  std::vector<NodeId> children;
  /// 2 * dim rows of count() floats: row i holds every child's lo(i),
  /// row dim + i every child's hi(i).
  std::vector<Scalar> bounds;

  std::size_t count() const { return children.size(); }
  /// Row-major [dim][count] lower bounds; the stride is count().
  const Scalar* lo() const { return bounds.data(); }
  /// Row-major [dim][count] upper bounds; the stride is count().
  const Scalar* hi() const { return bounds.data() + bounds.size() / 2; }

  /// Rebuilds the image from `entries` (directory entries of `dim`-d
  /// rects).
  void BuildFrom(const std::vector<NodeEntry>& entries,
                 std::size_t dim);

  /// Bitwise equality: a -0.0 bound differs from a +0.0 one.
  friend bool operator==(const DirImage& a, const DirImage& b);
};

/// A tree node. `level` 0 is the leaf level.
struct Node {
  NodeId id = kInvalidNodeId;
  int level = 0;
  /// Number of disk pages the node occupies (> 1 only for X-tree
  /// supernodes).
  std::uint32_t pages = 1;
  /// Dimensions used by splits in this node's history (X-tree split
  /// history, one bit per dimension). Propagated to split siblings.
  std::uint32_t split_history = 0;
  std::vector<NodeEntry> entries;
  /// The SoA image of `entries` (directory nodes only; see DirImage).
  DirImage image;

  bool IsLeaf() const { return level == 0; }

  /// The MBR of all entries.
  Rect ComputeMbr(std::size_t dim) const;

  /// Copies this leaf's points into `out` (entries.size() * dim scalars,
  /// row-major): the gather step of the SoA leaf-block build
  /// (src/index/leaf_block.h), peeling the coordinates out of the AoS
  /// NodeEntry layout so page scans become one contiguous sweep.
  void GatherLeafCoords(std::size_t dim, Scalar* out) const;
};

/// Entries per leaf page: a leaf record is the point plus its id.
std::size_t LeafCapacityPerPage(std::size_t dim);

/// Entries per directory page: a directory record is an MBR (lo and hi)
/// plus a child pointer.
std::size_t DirCapacityPerPage(std::size_t dim);

}  // namespace parsim

#endif  // PARSIM_SRC_INDEX_NODE_H_
