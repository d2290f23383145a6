#include "src/index/node.h"

#include <algorithm>
#include <cstring>

#include "src/util/check.h"

namespace parsim {

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
  if (a.children != b.children || a.bounds.size() != b.bounds.size()) {
    return false;
  }
  return a.bounds.empty() ||
         std::memcmp(a.bounds.data(), b.bounds.data(),
                     a.bounds.size() * sizeof(Scalar)) == 0;
}

Rect Node::ComputeMbr(std::size_t dim) const {
  Rect mbr = Rect::Empty(dim);
  for (const NodeEntry& e : entries) mbr.ExtendToInclude(e.rect);
  return mbr;
}

void Node::GatherLeafCoords([[maybe_unused]] std::size_t dim,
                            Scalar* out) const {
  PARSIM_DCHECK(IsLeaf());
  for (const NodeEntry& e : entries) {
    const PointView p = e.AsPoint();
    PARSIM_DCHECK(p.size() == dim);
    out = std::copy(p.begin(), p.end(), out);
  }
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
