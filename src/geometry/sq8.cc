#include "src/geometry/sq8.h"

#include <algorithm>
#include <cstring>

#include "src/util/check.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PARSIM_SQ8_X86 1
#include <immintrin.h>
#endif

namespace parsim {

namespace {

/// Relative inflation applied to measured errors and folded slacks:
/// large against the ~2e-16-per-op roundings it absorbs, invisible
/// against the err ~ scale/2 the quantization itself concedes.
constexpr double kRelGuard = 1e-12;

/// Absolute guard factor on the reconstruction magnitude |lo| + 255 *
/// scale: about 9 ulps, covering the (at most two) roundings inside the
/// Recon expression. Essential when the data sits exactly on the lattice
/// (measured error 0) at a large offset, where a relative guard on the
/// measured error alone guards nothing.
constexpr double kReconUlps = 1e-15;

std::uint8_t EncodeClamped(double value, double lo, double inv_scale) {
  const double u = (value - lo) * inv_scale;
  if (u <= 0.0) return 0;
  if (u >= 255.0) return 255;
  return static_cast<std::uint8_t>(std::lround(u));
}

// ---------------------------------------------------------------------
// Query preparation runs once per (query, block) pair, which makes it a
// fixed cost the quantized sweep pays before any candidate is pruned —
// at typical leaf sizes a naive scalar loop here costs as much as the
// integer kernel pass it enables. The hot loop below is therefore
// defined as a 4-lane strip algorithm (four independent accumulators,
// folded once at the end) that the AVX2 path evaluates with exactly the
// same IEEE operations per lane as the scalar fallback: sub, mul,
// min/max, floor(x + 0.5), add — no FMA contraction (t * t is computed
// as a separate statement so the compiler cannot fuse it either). Both
// paths produce bit-identical codes and slacks on every platform.
//
// The per-dim encode is floor(clamp(u, 0, 255) + 0.5) — identical to
// round-half-up of the clamped scaled offset, and exactly expressible in
// both scalar floor() and _mm256_floor_pd.
// ---------------------------------------------------------------------

/// 4-lane fold state of the strip loop. Lane l accumulates dims
/// j = 4k + l; FoldSlack / FoldBase combine lanes in a fixed tree order.
struct FoldAccum {
  double sum[4] = {0.0, 0.0, 0.0, 0.0};
  double sum_sq[4] = {0.0, 0.0, 0.0, 0.0};
  double max_t[4] = {0.0, 0.0, 0.0, 0.0};
  // Out-of-range gap terms (see Sq8Bound): per-metric folds of the
  // clamped dimensions' contributions, zero for in-range dimensions.
  double g_l1[4] = {0.0, 0.0, 0.0, 0.0};
  double g_l2[4] = {0.0, 0.0, 0.0, 0.0};
  double g_max[4] = {0.0, 0.0, 0.0, 0.0};
};

/// One dimension's contribution to the prepared query.
struct DimTerms {
  double t;      // |q'_j - Recon(c_j)| + err_j, q' the clamped query
  double g_l1;   // gap - 2 err   (clamped dims; else 0)
  double g_l2;   // gap^2 - 2 gap err
  double g_max;  // gap - err
};

/// Canonical per-dim op: clamps the query coordinate to the lattice
/// range when it overshoots by more than 2 err (recording the gap
/// terms), encodes it, and returns t_j against the clamped coordinate.
/// The AVX2 path evaluates these exact IEEE operations per lane
/// (branches become blends, the gap terms are computed unconditionally
/// and masked to zero for in-range lanes — same values either way).
inline DimTerms EncodeDim(double q, double lo_j, double err_j,
                          double inv_scale, double scale,
                          std::uint8_t* code_out) {
  const double recon_hi = lo_j + 255.0 * scale;
  const double gap_hi = q - recon_hi;
  const double gap_lo = lo_j - q;
  const double err2 = err_j + err_j;
  double qq = q;
  double g = 0.0;
  bool outside = false;
  if (gap_hi > err2) {
    qq = recon_hi;
    g = gap_hi;
    outside = true;
  } else if (gap_lo > err2) {
    qq = lo_j;
    g = gap_lo;
    outside = true;
  }
  const double u = (qq - lo_j) * inv_scale;
  const double clamped = std::min(std::max(u, 0.0), 255.0);
  const double c = std::floor(clamped + 0.5);
  *code_out = static_cast<std::uint8_t>(c);
  const double recon = lo_j + c * scale;
  DimTerms terms;
  terms.t = std::abs(qq - recon) + err_j;
  if (outside) {
    terms.g_l1 = g - err2;
    const double gg = g * g;
    const double ge = err2 * g;
    terms.g_l2 = gg - ge;
    terms.g_max = g - err_j;
  } else {
    terms.g_l1 = 0.0;
    terms.g_l2 = 0.0;
    terms.g_max = 0.0;
  }
  return terms;
}

/// Accumulates only the lane arrays metric `K` folds — preparation is
/// the fixed per-(member, block) cost of the quantized sweep, and a
/// third of the accumulator work is live for any one metric. The
/// untouched arrays stay at their zero init, so the fold functions below
/// read well-defined values regardless of K.
template <MetricKind K>
inline void AccumulateLane(FoldAccum* acc, std::size_t lane,
                           const DimTerms& terms) {
  const double t = terms.t;
  if constexpr (K == MetricKind::kL1) {
    acc->sum[lane] += t;
    acc->g_l1[lane] += terms.g_l1;
  } else if constexpr (K == MetricKind::kL2) {
    const double tt = t * t;
    acc->sum_sq[lane] += tt;
    acc->g_l2[lane] += terms.g_l2;
  } else {
    acc->max_t[lane] = std::max(acc->max_t[lane], t);
    acc->g_max[lane] = std::max(acc->g_max[lane], terms.g_max);
  }
}

/// Folds the 4 lanes in a fixed tree order and applies the per-metric
/// slack reduction.
double FoldSlack(const FoldAccum& acc, MetricKind kind) {
  switch (kind) {
    case MetricKind::kL1:
      return (acc.sum[0] + acc.sum[1]) + (acc.sum[2] + acc.sum[3]);
    case MetricKind::kL2:
      return std::sqrt((acc.sum_sq[0] + acc.sum_sq[1]) +
                       (acc.sum_sq[2] + acc.sum_sq[3]));
    case MetricKind::kLmax:
      return std::max(std::max(acc.max_t[0], acc.max_t[1]),
                      std::max(acc.max_t[2], acc.max_t[3]));
  }
  PARSIM_UNREACHABLE();
}

/// Folds the out-of-range gap lanes for `kind`, same tree order.
double FoldBase(const FoldAccum& acc, MetricKind kind) {
  switch (kind) {
    case MetricKind::kL1:
      return (acc.g_l1[0] + acc.g_l1[1]) + (acc.g_l1[2] + acc.g_l1[3]);
    case MetricKind::kL2:
      return (acc.g_l2[0] + acc.g_l2[1]) + (acc.g_l2[2] + acc.g_l2[3]);
    case MetricKind::kLmax:
      return std::max(std::max(acc.g_max[0], acc.g_max[1]),
                      std::max(acc.g_max[2], acc.g_max[3]));
  }
  PARSIM_UNREACHABLE();
}

Sq8Bound BoundFromAccum(const FoldAccum& acc, double scale, MetricKind kind) {
  Sq8Bound bound;
  bound.scale = scale;
  bound.kind = kind;
  bound.slack = FoldSlack(acc, kind) * (1.0 + kRelGuard);
  // Deflating the base keeps it below its real-arithmetic value (the
  // 2 err concession per clamped dim already dwarfs every rounding).
  bound.base = FoldBase(acc, kind) * (1.0 - 1e-9);
  return bound;
}

template <MetricKind K>
void PrepareManyScalar(const Sq8Mirror& mirror, const Scalar* queries,
                       std::size_t members, std::uint8_t* codes_out,
                       Sq8Bound* bounds_out) {
  const double inv_scale = 1.0 / mirror.scale;
  const std::size_t dim = mirror.dim;
  for (std::size_t m = 0; m < members; ++m) {
    const Scalar* query = queries + m * dim;
    std::uint8_t* codes = codes_out + m * dim;
    FoldAccum acc;
    std::size_t j = 0;
    for (; j + 4 <= dim; j += 4) {
      for (std::size_t lane = 0; lane < 4; ++lane) {
        AccumulateLane<K>(&acc, lane,
                          EncodeDim(static_cast<double>(query[j + lane]),
                                    mirror.lo[j + lane], mirror.err[j + lane],
                                    inv_scale, mirror.scale,
                                    codes + j + lane));
      }
    }
    for (std::size_t lane = 0; j < dim; ++j, ++lane) {
      AccumulateLane<K>(&acc, lane,
                        EncodeDim(static_cast<double>(query[j]), mirror.lo[j],
                                  mirror.err[j], inv_scale, mirror.scale,
                                  codes + j));
    }
    bounds_out[m] = BoundFromAccum(acc, mirror.scale, K);
  }
}

#ifdef PARSIM_SQ8_X86

template <MetricKind K>
__attribute__((target("avx2"))) void PrepareManyAvx2(
    const Sq8Mirror& mirror, const Scalar* queries, std::size_t members,
    std::uint8_t* codes_out, Sq8Bound* bounds_out) {
  const double inv_scale = 1.0 / mirror.scale;
  const std::size_t dim = mirror.dim;
  const __m256d vinv = _mm256_set1_pd(inv_scale);
  const __m256d vscale = _mm256_set1_pd(mirror.scale);
  const __m256d vzero = _mm256_setzero_pd();
  const __m256d v255 = _mm256_set1_pd(255.0);
  const __m256d vhalf = _mm256_set1_pd(0.5);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  // Picks bytes 0, 4, 8, 12 out of the cvtpd_epi32 result: the four
  // codes of a strip as one 32-bit store instead of a stack round-trip.
  const __m128i pack = _mm_set_epi8(-1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
                                    -1, -1, 12, 8, 4, 0);
  for (std::size_t m = 0; m < members; ++m) {
    const Scalar* query = queries + m * dim;
    std::uint8_t* codes = codes_out + m * dim;
    FoldAccum acc;
    __m256d vacc = vzero;  // K's lane accumulator: sum / sum_sq / max_t
    __m256d vg = vzero;    // K's gap accumulator:  g_l1 / g_l2 / g_max
    std::size_t j = 0;
    for (; j + 4 <= dim; j += 4) {
      const __m256d q = _mm256_cvtps_pd(_mm_loadu_ps(query + j));
      const __m256d lo = _mm256_loadu_pd(mirror.lo.data() + j);
      const __m256d err = _mm256_loadu_pd(mirror.err.data() + j);
      const __m256d recon_hi = _mm256_add_pd(lo, _mm256_mul_pd(v255, vscale));
      const __m256d gap_hi = _mm256_sub_pd(q, recon_hi);
      const __m256d gap_lo = _mm256_sub_pd(lo, q);
      const __m256d err2 = _mm256_add_pd(err, err);
      const __m256d m_hi = _mm256_cmp_pd(gap_hi, err2, _CMP_GT_OQ);
      const __m256d m_lo_raw = _mm256_cmp_pd(gap_lo, err2, _CMP_GT_OQ);
      const __m256d m_any = _mm256_or_pd(m_hi, m_lo_raw);
      __m256d qq = q;
      if (_mm256_movemask_pd(m_any) != 0) {
        // Lattice clamp (EncodeDim's branches as blends): qq is the
        // clamped coordinate, g the overshoot (0 for in-range lanes).
        // Strips with every lane in range skip all of this; the skipped
        // gap contributions are exactly +0.0 (the masked and_pd zeroes
        // them), so accumulating or skipping them is bit-identical.
        const __m256d m_lo = _mm256_andnot_pd(m_hi, m_lo_raw);
        qq = _mm256_blendv_pd(q, recon_hi, m_hi);
        qq = _mm256_blendv_pd(qq, lo, m_lo);
        __m256d g = _mm256_blendv_pd(vzero, gap_hi, m_hi);
        g = _mm256_blendv_pd(g, gap_lo, m_lo);
        if constexpr (K == MetricKind::kL1) {
          vg = _mm256_add_pd(vg,
                             _mm256_and_pd(m_any, _mm256_sub_pd(g, err2)));
        } else if constexpr (K == MetricKind::kL2) {
          const __m256d gg = _mm256_mul_pd(g, g);
          const __m256d ge = _mm256_mul_pd(err2, g);
          vg = _mm256_add_pd(vg,
                             _mm256_and_pd(m_any, _mm256_sub_pd(gg, ge)));
        } else {
          vg = _mm256_max_pd(vg,
                             _mm256_and_pd(m_any, _mm256_sub_pd(g, err)));
        }
      }
      const __m256d u = _mm256_mul_pd(_mm256_sub_pd(qq, lo), vinv);
      const __m256d clamped = _mm256_min_pd(_mm256_max_pd(u, vzero), v255);
      const __m256d c = _mm256_floor_pd(_mm256_add_pd(clamped, vhalf));
      const __m128i bytes = _mm_shuffle_epi8(_mm256_cvtpd_epi32(c), pack);
      const std::uint32_t word =
          static_cast<std::uint32_t>(_mm_cvtsi128_si32(bytes));
      std::memcpy(codes + j, &word, 4);
      const __m256d recon = _mm256_add_pd(lo, _mm256_mul_pd(c, vscale));
      const __m256d t = _mm256_add_pd(
          _mm256_and_pd(abs_mask, _mm256_sub_pd(qq, recon)), err);
      if constexpr (K == MetricKind::kL1) {
        vacc = _mm256_add_pd(vacc, t);
      } else if constexpr (K == MetricKind::kL2) {
        vacc = _mm256_add_pd(vacc, _mm256_mul_pd(t, t));
      } else {
        vacc = _mm256_max_pd(vacc, t);
      }
    }
    if constexpr (K == MetricKind::kL1) {
      _mm256_storeu_pd(acc.sum, vacc);
      _mm256_storeu_pd(acc.g_l1, vg);
    } else if constexpr (K == MetricKind::kL2) {
      _mm256_storeu_pd(acc.sum_sq, vacc);
      _mm256_storeu_pd(acc.g_l2, vg);
    } else {
      _mm256_storeu_pd(acc.max_t, vacc);
      _mm256_storeu_pd(acc.g_max, vg);
    }
    for (std::size_t lane = 0; j < dim; ++j, ++lane) {
      AccumulateLane<K>(&acc, lane,
                        EncodeDim(static_cast<double>(query[j]), mirror.lo[j],
                                  mirror.err[j], inv_scale, mirror.scale,
                                  codes + j));
    }
    bounds_out[m] = BoundFromAccum(acc, mirror.scale, K);
  }
}

#endif  // PARSIM_SQ8_X86

/// The scale <= 0 path of query preparation: every code is 0 and
/// Recon(0, j) = lo[j]. Off the hot path (constant blocks), so a plain
/// sequential fold is fine.
Sq8Bound PrepareDegenerate(const Sq8Mirror& mirror, const Scalar* query,
                           MetricKind kind, std::uint8_t* codes_out) {
  Sq8Bound bound;
  bound.scale = mirror.scale;
  bound.kind = kind;
  double sum = 0.0;
  double sum_sq = 0.0;
  double max_t = 0.0;
  for (std::size_t j = 0; j < mirror.dim; ++j) {
    codes_out[j] = 0;
    const double t =
        std::abs(static_cast<double>(query[j]) - mirror.lo[j]) + mirror.err[j];
    sum += t;
    sum_sq += t * t;
    max_t = std::max(max_t, t);
  }
  switch (kind) {
    case MetricKind::kL1:
      bound.slack = sum;
      break;
    case MetricKind::kL2:
      bound.slack = std::sqrt(sum_sq);
      break;
    case MetricKind::kLmax:
      bound.slack = max_t;
      break;
  }
  bound.slack *= 1.0 + kRelGuard;
  return bound;
}

/// The query-preparation kernel of one metric, indexed by MetricKind.
using PrepareManyFn = void (*)(const Sq8Mirror&, const Scalar*, std::size_t,
                               std::uint8_t*, Sq8Bound*);

constexpr PrepareManyFn kPrepareScalar[] = {
    PrepareManyScalar<MetricKind::kL1>, PrepareManyScalar<MetricKind::kL2>,
    PrepareManyScalar<MetricKind::kLmax>};

/// The AVX2 row where the metric kernels dispatched to AVX2 (one cpuid
/// decision per process), else the scalar row.
const PrepareManyFn* PickPrepareRow() {
#ifdef PARSIM_SQ8_X86
  static constexpr PrepareManyFn kPrepareAvx2[] = {
      PrepareManyAvx2<MetricKind::kL1>, PrepareManyAvx2<MetricKind::kL2>,
      PrepareManyAvx2<MetricKind::kLmax>};
  if (detail::SimdEnabled()) return kPrepareAvx2;
#endif
  return kPrepareScalar;
}

}  // namespace

void Sq8Mirror::BuildFrom(const Scalar* points, std::size_t n,
                          std::size_t dimension) {
  count = n;
  dim = dimension;
  // The L2 reduction accumulates dim * 255^2 in a uint32; dim <= 65535
  // keeps it far from overflow (65535 * 65025 < 2^32).
  PARSIM_CHECK(dim <= 65535);
  codes.assign(count * dim, 0);
  lo.assign(dim, 0.0);
  err.assign(dim, 0.0);
  scale = 0.0;
  if (count == 0 || dim == 0) return;

  std::vector<double> hi(dim, 0.0);
  for (std::size_t j = 0; j < dim; ++j) {
    lo[j] = static_cast<double>(points[j]);
    hi[j] = lo[j];
  }
  for (std::size_t i = 1; i < count; ++i) {
    const Scalar* row_in = points + i * dim;
    for (std::size_t j = 0; j < dim; ++j) {
      const double v = static_cast<double>(row_in[j]);
      lo[j] = std::min(lo[j], v);
      hi[j] = std::max(hi[j], v);
    }
  }
  double max_range = 0.0;
  for (std::size_t j = 0; j < dim; ++j) {
    max_range = std::max(max_range, hi[j] - lo[j]);
  }
  scale = max_range / 255.0;

  if (scale > 0.0) {
    const double inv_scale = 1.0 / scale;
    for (std::size_t i = 0; i < count; ++i) {
      const Scalar* row_in = points + i * dim;
      std::uint8_t* row_out = codes.data() + i * dim;
      for (std::size_t j = 0; j < dim; ++j) {
        const double v = static_cast<double>(row_in[j]);
        const std::uint8_t c = EncodeClamped(v, lo[j], inv_scale);
        row_out[j] = c;
        err[j] = std::max(err[j], std::abs(v - Recon(c, j)));
      }
    }
  }
  // Guard-inflate (see file comment in sq8.h): relative on the measured
  // error, absolute on the reconstruction magnitude.
  for (std::size_t j = 0; j < dim; ++j) {
    err[j] = err[j] * (1.0 + kRelGuard) +
             (std::abs(lo[j]) + 255.0 * scale) * kReconUlps;
  }
}

void PrepareSq8QueryMany(const Sq8Mirror& mirror, const Scalar* queries,
                         std::size_t members, MetricKind kind,
                         std::uint8_t* codes_out, Sq8Bound* bounds_out) {
  if (mirror.scale <= 0.0) {
    for (std::size_t m = 0; m < members; ++m) {
      bounds_out[m] = PrepareDegenerate(mirror, queries + m * mirror.dim, kind,
                                        codes_out + m * mirror.dim);
    }
    return;
  }
  static const PrepareManyFn* const kPrepare = PickPrepareRow();
  kPrepare[static_cast<std::size_t>(kind)](mirror, queries, members,
                                           codes_out, bounds_out);
}

Sq8Bound PrepareSq8Query(const Sq8Mirror& mirror, PointView query,
                         MetricKind kind, std::uint8_t* codes_out) {
  PARSIM_DCHECK(query.size() == mirror.dim);
  Sq8Bound bound;
  PrepareSq8QueryMany(mirror, query.data(), 1, kind, codes_out, &bound);
  return bound;
}

}  // namespace parsim
