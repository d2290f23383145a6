// On-"disk" node layout of the R*-tree / X-tree family.
//
// Nodes live on a simulated disk: a directory node or leaf normally
// occupies one 4 KB page; X-tree supernodes span several contiguous
// pages and charge that many page accesses when read.
//
// Every node carries the scan layout of its entries next to them: a
// directory node its DirImage, a leaf its LeafBlock. Both are pure
// functions of the entries, rebuilt by whatever writes the entries
// (BulkLoad, LoadTree, the end of every Insert and Delete), so between
// writes each equals a fresh build bit for bit (TreeBase::
// ValidateInvariants checks this) and queries read them without locks.

#ifndef PARSIM_SRC_INDEX_NODE_H_
#define PARSIM_SRC_INDEX_NODE_H_

#include <cstdint>
#include <vector>

#include "src/geometry/point.h"
#include "src/geometry/rect.h"
#include "src/geometry/sq8.h"
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
/// BuildFrom. Leaves keep an empty image.
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

/// Structure-of-arrays image of a leaf page: the coordinates and ids of
/// its points in entry order, contiguous, so a page scan is one sweep
/// the one-to-many and many-to-many distance kernels (Metric::
/// ComparableMany / ComparableBlock) stream over without a per-query
/// gather. A leaf entry stores its point as a degenerate Rect (lo ==
/// hi), which keeps the split and MBR code uniform across levels; the
/// block is the same points peeled out of those Rects. Directory nodes
/// keep an empty block.
struct LeafBlock {
  std::size_t count = 0;
  std::size_t dim = 0;
  /// count * dim scalars, row-major (point i at coords[i * dim]).
  std::vector<Scalar> coords;
  /// count point ids, parallel to coords.
  std::vector<PointId> ids;

  /// SQ8 mirror of `coords` (src/geometry/sq8.h): per-block lattice plus
  /// uint8 codes, built together with the floats when the tree
  /// quantizes its leaves. Empty when has_sq8 is false.
  Sq8Mirror sq8;
  bool has_sq8 = false;

  PointView row(std::size_t i) const {
    return {coords.data() + i * dim, dim};
  }

  /// Rebuilds the block from `entries` (leaf entries of `dim`-d points);
  /// with `quantize` also builds the SQ8 mirror of the gathered floats.
  void BuildFrom(const std::vector<NodeEntry>& entries, std::size_t dim,
                 bool quantize);

  /// Bitwise equality of every field, the SQ8 mirror included.
  friend bool operator==(const LeafBlock& a, const LeafBlock& b);
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
  /// The SoA block of `entries` (leaves only; see LeafBlock).
  LeafBlock block;

  bool IsLeaf() const { return level == 0; }

  /// The MBR of all entries.
  Rect ComputeMbr(std::size_t dim) const;
};

/// Entries per leaf page: a leaf record is the point plus its id.
std::size_t LeafCapacityPerPage(std::size_t dim);

/// Entries per directory page: a directory record is an MBR (lo and hi)
/// plus a child pointer.
std::size_t DirCapacityPerPage(std::size_t dim);

}  // namespace parsim

#endif  // PARSIM_SRC_INDEX_NODE_H_
