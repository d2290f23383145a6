// d-dimensional feature vectors ("points") and views over them.
//
// Feature vectors use 32-bit floats: the paper's feature data (color
// histograms, Fourier descriptors, text descriptors) needs no more
// precision, and the 4-byte scalar matches the page-capacity math of the
// disk simulator. Distance arithmetic is carried out in double.

#ifndef PARSIM_SRC_GEOMETRY_POINT_H_
#define PARSIM_SRC_GEOMETRY_POINT_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "src/util/check.h"

namespace parsim {

/// Scalar type of feature-vector coordinates.
using Scalar = float;

/// Non-owning view of a point's coordinates.
using PointView = std::span<const Scalar>;

/// Identifier of a data object within a data set.
using PointId = std::uint32_t;
inline constexpr PointId kInvalidPointId = static_cast<PointId>(-1);

/// True iff no coordinate is NaN or infinite. The write paths (tree
/// Insert, engine Build/Insert) reject points that fail it: a NaN never
/// compares equal, so such a record could never be found or deleted.
inline bool AllFinite(std::span<const Scalar> coords) {
  return std::all_of(coords.begin(), coords.end(),
                     [](Scalar x) { return std::isfinite(x); });
}

/// An owning d-dimensional point. The data space is [0,1]^d by convention
/// (Section 2 of the paper); generators produce coordinates in that range,
/// but Point itself does not enforce it.
class Point {
 public:
  Point() = default;
  explicit Point(std::size_t dim, Scalar fill = 0) : coords_(dim, fill) {}
  Point(std::initializer_list<Scalar> coords) : coords_(coords) {}
  explicit Point(std::vector<Scalar> coords) : coords_(std::move(coords)) {}

  std::size_t dim() const { return coords_.size(); }

  Scalar operator[](std::size_t i) const {
    PARSIM_DCHECK(i < coords_.size());
    return coords_[i];
  }
  Scalar& operator[](std::size_t i) {
    PARSIM_DCHECK(i < coords_.size());
    return coords_[i];
  }

  const Scalar* data() const { return coords_.data(); }
  Scalar* data() { return coords_.data(); }

  /// Implicit view conversion so metric functions take PointView only.
  operator PointView() const { return {coords_.data(), coords_.size()}; }
  PointView view() const { return {coords_.data(), coords_.size()}; }

  friend bool operator==(const Point& a, const Point& b) {
    return a.coords_ == b.coords_;
  }

  /// "(0.25, 0.75)" — for diagnostics and examples.
  std::string ToString() const;

 private:
  std::vector<Scalar> coords_;
};

/// A column-compressed set of points: `count` points of dimension `dim`
/// stored contiguously (row-major). This is the in-memory form every
/// generator produces and every index consumes; it avoids per-point heap
/// allocations for the multi-hundred-thousand-point benchmark datasets.
class PointSet {
 public:
  PointSet() : dim_(0) {}
  explicit PointSet(std::size_t dim) : dim_(dim) { PARSIM_CHECK(dim > 0); }

  std::size_t dim() const { return dim_; }
  std::size_t size() const { return dim_ == 0 ? 0 : flat_.size() / dim_; }
  bool empty() const { return flat_.empty(); }

  /// Appends a point; its dimension must match.
  void Add(PointView p) {
    PARSIM_CHECK(p.size() == dim_);
    flat_.insert(flat_.end(), p.begin(), p.end());
  }

  /// View of the i-th point.
  PointView operator[](std::size_t i) const {
    PARSIM_DCHECK(i < size());
    return {flat_.data() + i * dim_, dim_};
  }

  /// Mutable access to the i-th point's coordinates.
  std::span<Scalar> Mutable(std::size_t i) {
    PARSIM_DCHECK(i < size());
    return {flat_.data() + i * dim_, dim_};
  }

  /// Owning copy of the i-th point.
  Point Materialize(std::size_t i) const {
    PointView v = (*this)[i];
    return Point(std::vector<Scalar>(v.begin(), v.end()));
  }

  /// Contiguous row-major coordinate storage (size() * dim() scalars).
  /// The layout the one-to-many distance kernels stream over.
  const Scalar* data() const { return flat_.data(); }

  void Reserve(std::size_t points) { flat_.reserve(points * dim_); }

  /// Removes the last point. Requires a non-empty set.
  void PopBack() {
    PARSIM_CHECK(!empty());
    flat_.resize(flat_.size() - dim_);
  }

  /// Size of one point record on a simulated page: coordinates + PointId.
  std::size_t BytesPerPoint() const {
    return dim_ * sizeof(Scalar) + sizeof(PointId);
  }

  /// Total payload bytes if stored as records (used to express data-set
  /// sizes in "MBytes" like the paper does).
  std::size_t TotalBytes() const { return size() * BytesPerPoint(); }

 private:
  std::size_t dim_;
  std::vector<Scalar> flat_;
};

}  // namespace parsim

#endif  // PARSIM_SRC_GEOMETRY_POINT_H_
