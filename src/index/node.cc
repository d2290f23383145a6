#include "src/index/node.h"

#include <algorithm>
#include <cstring>

#include "src/util/check.h"

namespace parsim {

namespace {

/// Bitwise vector equality: a -0.0 differs from a +0.0, a NaN equals
/// itself.
template <typename T>
bool SameBits(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

}  // namespace

void DirImage::BuildFrom(const std::vector<NodeEntry>& entries,
                         std::size_t dim) {
  const std::size_t n = entries.size();
  children.resize(n);
  bounds.resize(2 * dim * n);
  Scalar* lo_rows = bounds.data();
  Scalar* hi_rows = bounds.data() + dim * n;
  for (std::size_t j = 0; j < n; ++j) {
    const Rect& r = entries[j].rect;
    PARSIM_DCHECK(r.dim() == dim);
    children[j] = entries[j].child;
    for (std::size_t i = 0; i < dim; ++i) {
      lo_rows[i * n + j] = r.lo(i);
      hi_rows[i * n + j] = r.hi(i);
    }
  }
}

bool operator==(const DirImage& a, const DirImage& b) {
  return a.children == b.children && SameBits(a.bounds, b.bounds);
}

void LeafBlock::BuildFrom(const std::vector<NodeEntry>& entries,
                          std::size_t dimension, bool quantize) {
  count = entries.size();
  dim = dimension;
  coords.resize(count * dim);
  ids.resize(count);
  Scalar* out = coords.data();
  for (std::size_t i = 0; i < count; ++i) {
    const PointView p = entries[i].AsPoint();
    PARSIM_DCHECK(p.size() == dim);
    out = std::copy(p.begin(), p.end(), out);
    ids[i] = entries[i].child;
  }
  has_sq8 = quantize;
  if (quantize) {
    sq8.BuildFrom(coords.data(), count, dim);
  } else {
    sq8 = Sq8Mirror{};
  }
}

bool operator==(const LeafBlock& a, const LeafBlock& b) {
  const Sq8Mirror& x = a.sq8;
  const Sq8Mirror& y = b.sq8;
  return a.count == b.count && a.dim == b.dim && a.ids == b.ids &&
         SameBits(a.coords, b.coords) && a.has_sq8 == b.has_sq8 &&
         x.count == y.count && x.dim == y.dim &&
         std::memcmp(&x.scale, &y.scale, sizeof(x.scale)) == 0 &&
         x.codes == y.codes && SameBits(x.lo, y.lo) && SameBits(x.err, y.err);
}

Rect Node::ComputeMbr(std::size_t dim) const {
  Rect mbr = Rect::Empty(dim);
  for (const NodeEntry& e : entries) mbr.ExtendToInclude(e.rect);
  return mbr;
}

std::size_t LeafCapacityPerPage(std::size_t dim) {
  PARSIM_CHECK(dim >= 1);
  const std::size_t record = dim * sizeof(Scalar) + sizeof(PointId);
  const std::size_t capacity = kPageSizeBytes / record;
  PARSIM_CHECK(capacity >= 2);  // a page must hold at least two records
  return capacity;
}

std::size_t DirCapacityPerPage(std::size_t dim) {
  PARSIM_CHECK(dim >= 1);
  const std::size_t record = 2 * dim * sizeof(Scalar) + sizeof(NodeId);
  const std::size_t capacity = kPageSizeBytes / record;
  PARSIM_CHECK(capacity >= 2);
  return capacity;
}

}  // namespace parsim
