#include "src/geometry/rect.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/util/check.h"

namespace parsim {

Rect Rect::Empty(std::size_t dim) {
  Rect r;
  r.lo_.assign(dim, std::numeric_limits<Scalar>::infinity());
  r.hi_.assign(dim, -std::numeric_limits<Scalar>::infinity());
  return r;
}

Rect Rect::UnitCube(std::size_t dim) {
  Rect r;
  r.lo_.assign(dim, 0);
  r.hi_.assign(dim, 1);
  return r;
}

Rect Rect::AroundPoint(PointView p) {
  Rect r;
  r.lo_.assign(p.begin(), p.end());
  r.hi_.assign(p.begin(), p.end());
  return r;
}

Rect::Rect(std::vector<Scalar> lo, std::vector<Scalar> hi)
    : lo_(std::move(lo)), hi_(std::move(hi)) {
  PARSIM_CHECK(lo_.size() == hi_.size());
  for (std::size_t i = 0; i < lo_.size(); ++i) PARSIM_CHECK(lo_[i] <= hi_[i]);
}

bool Rect::IsEmpty() const {
  for (std::size_t i = 0; i < lo_.size(); ++i) {
    if (lo_[i] > hi_[i]) return true;
  }
  return lo_.empty();
}

bool Rect::Contains(PointView p) const {
  PARSIM_DCHECK(p.size() == dim());
  for (std::size_t i = 0; i < lo_.size(); ++i) {
    if (p[i] < lo_[i] || p[i] > hi_[i]) return false;
  }
  return true;
}

bool Rect::ContainsRect(const Rect& other) const {
  PARSIM_DCHECK(other.dim() == dim());
  if (other.IsEmpty()) return true;
  for (std::size_t i = 0; i < lo_.size(); ++i) {
    if (other.lo_[i] < lo_[i] || other.hi_[i] > hi_[i]) return false;
  }
  return true;
}

bool Rect::Intersects(const Rect& other) const {
  PARSIM_DCHECK(other.dim() == dim());
  for (std::size_t i = 0; i < lo_.size(); ++i) {
    if (other.hi_[i] < lo_[i] || other.lo_[i] > hi_[i]) return false;
  }
  return true;
}

void Rect::ExtendToInclude(PointView p) {
  PARSIM_DCHECK(p.size() == dim());
  for (std::size_t i = 0; i < lo_.size(); ++i) {
    lo_[i] = std::min(lo_[i], p[i]);
    hi_[i] = std::max(hi_[i], p[i]);
  }
}

void Rect::ExtendToInclude(const Rect& other) {
  PARSIM_DCHECK(other.dim() == dim());
  for (std::size_t i = 0; i < lo_.size(); ++i) {
    lo_[i] = std::min(lo_[i], other.lo_[i]);
    hi_[i] = std::max(hi_[i], other.hi_[i]);
  }
}

Rect Rect::Union(const Rect& a, const Rect& b) {
  Rect out = a;
  out.ExtendToInclude(b);
  return out;
}

Rect Rect::Intersection(const Rect& a, const Rect& b) {
  PARSIM_DCHECK(a.dim() == b.dim());
  Rect out = Rect::Empty(a.dim());
  for (std::size_t i = 0; i < a.dim(); ++i) {
    out.lo_[i] = std::max(a.lo_[i], b.lo_[i]);
    out.hi_[i] = std::min(a.hi_[i], b.hi_[i]);
    if (out.lo_[i] > out.hi_[i]) return Rect::Empty(a.dim());
  }
  return out;
}

double Rect::Volume() const {
  if (IsEmpty()) return 0.0;
  double v = 1.0;
  for (std::size_t i = 0; i < lo_.size(); ++i) {
    v *= static_cast<double>(hi_[i]) - static_cast<double>(lo_[i]);
  }
  return v;
}

double Rect::Margin() const {
  if (IsEmpty()) return 0.0;
  double m = 0.0;
  for (std::size_t i = 0; i < lo_.size(); ++i) {
    m += static_cast<double>(hi_[i]) - static_cast<double>(lo_[i]);
  }
  return m;
}

double Rect::OverlapVolume(const Rect& other) const {
  return Intersection(*this, other).Volume();
}

Point Rect::Center() const {
  Point c(dim());
  for (std::size_t i = 0; i < lo_.size(); ++i) {
    c[i] = static_cast<Scalar>(
        (static_cast<double>(lo_[i]) + static_cast<double>(hi_[i])) / 2.0);
  }
  return c;
}

double Rect::SquaredMinDist(PointView p) const {
  PARSIM_DCHECK(p.size() == dim());
  double sum = 0.0;
  for (std::size_t i = 0; i < lo_.size(); ++i) {
    // Branch-free select of the per-dimension gap: exactly one of
    // {lo - p, p - hi, 0} is positive (or all are <= 0, inside the
    // slab), so the max IS the value the branchy form picks — same
    // double, same accumulation order, only without the two
    // data-dependent branches per dimension that mispredict on
    // interior-node descent.
    const double below =
        static_cast<double>(lo_[i]) - static_cast<double>(p[i]);
    const double above =
        static_cast<double>(p[i]) - static_cast<double>(hi_[i]);
    const double diff = std::max(std::max(below, above), 0.0);
    sum += diff * diff;
  }
  return sum;
}

double Rect::SquaredMinMaxDist(PointView p) const {
  PARSIM_DCHECK(p.size() == dim());
  PARSIM_DCHECK(!IsEmpty());
  // After Roussopoulos/Kelley/Vincent: for each dimension k choose the
  // nearer face in k and the farther face in every other dimension; take
  // the minimum over k.
  const std::size_t d = dim();
  // Precompute per-dimension squared distances to the nearer (rm) and
  // farther (rM) faces.
  double total_far = 0.0;
  std::vector<double> near_sq(d), far_sq(d);
  for (std::size_t i = 0; i < d; ++i) {
    const double pi = static_cast<double>(p[i]);
    const double lo = static_cast<double>(lo_[i]);
    const double hi = static_cast<double>(hi_[i]);
    const double mid = (lo + hi) / 2.0;
    const double rm = (pi <= mid) ? lo : hi;  // nearer face
    const double rM = (pi >= mid) ? lo : hi;  // farther face
    near_sq[i] = (pi - rm) * (pi - rm);
    far_sq[i] = (pi - rM) * (pi - rM);
    total_far += far_sq[i];
  }
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t k = 0; k < d; ++k) {
    const double candidate = total_far - far_sq[k] + near_sq[k];
    best = std::min(best, candidate);
  }
  return best;
}

bool Rect::IntersectsBall(PointView center, double radius) const {
  PARSIM_DCHECK(radius >= 0.0);
  return SquaredMinDist(center) <= radius * radius;
}

std::string Rect::ToString() const {
  std::string out = "[";
  char buf[64];
  for (std::size_t i = 0; i < lo_.size(); ++i) {
    if (i > 0) out += " x ";
    std::snprintf(buf, sizeof(buf), "[%g,%g]", static_cast<double>(lo_[i]),
                  static_cast<double>(hi_[i]));
    out += buf;
  }
  out += "]";
  return out;
}

}  // namespace parsim
