#include "src/geometry/metric.h"

#include <algorithm>
#include <cmath>

#include "src/util/check.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PARSIM_METRIC_X86 1
#include <immintrin.h>
#endif

namespace parsim {

const char* MetricKindToString(MetricKind kind) {
  switch (kind) {
    case MetricKind::kL1:
      return "L1";
    case MetricKind::kL2:
      return "L2";
    case MetricKind::kLmax:
      return "Lmax";
  }
  PARSIM_UNREACHABLE();
}

namespace detail {

double SquaredL2Scalar(PointView a, PointView b) {
  PARSIM_DCHECK(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double diff = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += diff * diff;
  }
  return sum;
}

double L1Scalar(PointView a, PointView b) {
  PARSIM_DCHECK(a.size() == b.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    sum += std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
  }
  return sum;
}

double LmaxScalar(PointView a, PointView b) {
  PARSIM_DCHECK(a.size() == b.size());
  double best = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    best = std::max(
        best, std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i])));
  }
  return best;
}

std::uint32_t Sq8SadScalar(const std::uint8_t* a, const std::uint8_t* b,
                           std::size_t n) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += static_cast<std::uint32_t>(a[i] > b[i] ? a[i] - b[i] : b[i] - a[i]);
  }
  return sum;
}

std::uint32_t Sq8SsdScalar(const std::uint8_t* a, const std::uint8_t* b,
                           std::size_t n) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::int32_t d =
        static_cast<std::int32_t>(a[i]) - static_cast<std::int32_t>(b[i]);
    sum += static_cast<std::uint32_t>(d * d);
  }
  return sum;
}

std::uint32_t Sq8MadScalar(const std::uint8_t* a, const std::uint8_t* b,
                           std::size_t n) {
  std::uint32_t best = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t d =
        static_cast<std::uint32_t>(a[i] > b[i] ? a[i] - b[i] : b[i] - a[i]);
    best = std::max(best, d);
  }
  return best;
}

}  // namespace detail

namespace {

using enum MetricKind;

// ---------------------------------------------------------------------
// Every kernel shape below is written once, as a template over the
// metric: the metrics differ only in the step that folds one
// dimension's difference into an accumulator and in how two
// accumulators merge.
// ---------------------------------------------------------------------

/// One dimension's float step: acc + d * d (L2), acc + |d| (L1) or
/// max(acc, |d|) (Lmax), with d the coordinate difference. The AVX2
/// kernels pass kFused: their L2 step is one fused multiply-add, written
/// as std::fma so its rounding does not depend on whether the compiler
/// contracts `acc + d * d`. The portable kernels never fuse.
template <MetricKind K, bool kFused = false>
inline double FloatStep(double acc, double d) {
  if constexpr (K == kL2) {
    if constexpr (kFused) {
      return std::fma(d, d, acc);
    } else {
      return acc + d * d;
    }
  } else if constexpr (K == kL1) {
    return acc + std::abs(d);
  } else {
    return std::max(acc, std::abs(d));
  }
}

/// One dimension's SQ8 step over two codes: squared difference summed
/// (L2), absolute difference summed (L1) or maxed (Lmax).
template <MetricKind K>
inline std::uint32_t Sq8Step(std::uint32_t acc, std::uint8_t x,
                             std::uint8_t y) {
  if constexpr (K == kL2) {
    const std::int32_t d =
        static_cast<std::int32_t>(x) - static_cast<std::int32_t>(y);
    return acc + static_cast<std::uint32_t>(d * d);
  } else {
    const auto ad = static_cast<std::uint32_t>(x > y ? x - y : y - x);
    if constexpr (K == kL1) {
      return acc + ad;
    } else {
      return std::max(acc, ad);
    }
  }
}

/// Merges two partial accumulators: a sum, or a max for Lmax.
template <MetricKind K, typename T>
inline T Merge(T a, T b) {
  if constexpr (K == kLmax) {
    return std::max(a, b);
  } else {
    return a + b;
  }
}

// ---------------------------------------------------------------------
// Portable kernels: 4-way unrolled with independent accumulators so the
// compiler can software-pipeline; merged as (s0 . s1) . (s2 . s3), then
// the tail folds in dimension order.
// ---------------------------------------------------------------------

template <MetricKind K>
double PairUnrolled(const float* a, const float* b, std::size_t n) {
  const auto diff = [a, b](std::size_t i) {
    return static_cast<double>(a[i]) - static_cast<double>(b[i]);
  };
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 = FloatStep<K>(s0, diff(i));
    s1 = FloatStep<K>(s1, diff(i + 1));
    s2 = FloatStep<K>(s2, diff(i + 2));
    s3 = FloatStep<K>(s3, diff(i + 3));
  }
  double acc = Merge<K>(Merge<K>(s0, s1), Merge<K>(s2, s3));
  for (; i < n; ++i) acc = FloatStep<K>(acc, diff(i));
  return acc;
}

// SQ8 code reductions (uint8 rows -> uint32), the quantized sweep's
// pair primitives: SAD for L1, SSD for L2, MAD for Lmax. All integer,
// so every variant — unrolled, AVX2, many, block — returns identical
// values by construction.
template <MetricKind K>
std::uint32_t Sq8PairUnrolled(const std::uint8_t* a, const std::uint8_t* b,
                              std::size_t n) {
  std::uint32_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 = Sq8Step<K>(s0, a[i], b[i]);
    s1 = Sq8Step<K>(s1, a[i + 1], b[i + 1]);
    s2 = Sq8Step<K>(s2, a[i + 2], b[i + 2]);
    s3 = Sq8Step<K>(s3, a[i + 3], b[i + 3]);
  }
  std::uint32_t acc = Merge<K>(Merge<K>(s0, s1), Merge<K>(s2, s3));
  for (; i < n; ++i) acc = Sq8Step<K>(acc, a[i], b[i]);
  return acc;
}

/// Many-to-many block kernel: Q queries against one contiguous block of
/// candidate rows (an SoA leaf block), out[q * count + i], streamed
/// point-major so each candidate row is loaded once per sweep.
template <MetricKind K>
void BlockUnrolled(const float* queries, std::size_t num_queries,
                   const float* points, std::size_t count, std::size_t dim,
                   double* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const float* p = points + i * dim;
    for (std::size_t q = 0; q < num_queries; ++q) {
      out[q * count + i] = PairUnrolled<K>(queries + q * dim, p, dim);
    }
  }
}

/// One query's codes against a contiguous block of code rows.
template <MetricKind K>
void Sq8ManyUnrolled(const std::uint8_t* query, const std::uint8_t* codes,
                     std::size_t count, std::size_t dim, std::uint32_t* out) {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = Sq8PairUnrolled<K>(query, codes + i * dim, dim);
  }
}

/// Fused one-to-many reduction + cutoff filter: writes the indices of
/// rows whose reduction is <= cutoff, returns how many survived.
template <MetricKind K>
std::size_t Sq8ManyUnderUnrolled(const std::uint8_t* query,
                                 const std::uint8_t* codes, std::size_t count,
                                 std::size_t dim, std::uint32_t cutoff,
                                 std::uint32_t* out_idx) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (Sq8PairUnrolled<K>(query, codes + i * dim, dim) <= cutoff) {
      out_idx[n++] = static_cast<std::uint32_t>(i);
    }
  }
  return n;
}

// ---------------------------------------------------------------------
// Point-to-many-boxes MINDIST over a dimension-major box image (a
// directory node's DirImage): box j's bounds in dimension i are
// lo[i * stride + j] and hi[i * stride + j]. Each box replays the
// per-dimension sequence of MinDistComparable (src/index/knn.cc):
//   gap = std::max(std::max(lo - q, q - hi), 0.0), accumulated in
//   dimension order by sum += gap * gap (L2), sum += gap (L1) or
//   best = std::max(best, gap) (Lmax),
// so every value is bit-identical to it. std::max(a, b) returns
// (a < b) ? b : a, which is exactly _mm256_max_pd(b, a) (MAXPD returns
// its second operand when the two compare equal, as for -0.0 vs +0.0);
// the AVX2 variant writes every max with swapped operands, and it is
// compiled without FMA so gap * gap + sum never fuses.
// ---------------------------------------------------------------------

/// Dimension-outer scalar loop: each box still accumulates its own
/// dimensions in order, and out[] doubles as the accumulator row.
template <MetricKind K>
void MinDistManyUnrolled(const float* query, const float* lo, const float* hi,
                         std::size_t count, std::size_t stride,
                         std::size_t dim, double* out) {
  std::fill(out, out + count, 0.0);
  for (std::size_t i = 0; i < dim; ++i) {
    const double q = static_cast<double>(query[i]);
    const float* lo_row = lo + i * stride;
    const float* hi_row = hi + i * stride;
    for (std::size_t j = 0; j < count; ++j) {
      const double below = static_cast<double>(lo_row[j]) - q;
      const double above = q - static_cast<double>(hi_row[j]);
      const double gap = std::max(std::max(below, above), 0.0);
      if constexpr (K == kL2) {
        out[j] += gap * gap;
      } else if constexpr (K == kL1) {
        out[j] += gap;
      } else {
        out[j] = std::max(out[j], gap);
      }
    }
  }
}

#ifdef PARSIM_METRIC_X86

// ---------------------------------------------------------------------
// AVX2+FMA float kernels. Coordinates are float but all arithmetic is
// carried out on doubles (floats widened in registers), matching the
// precision contract of the portable kernels. Compiled with per-function
// target attributes so the binary still runs on pre-AVX2 hosts;
// PickKernels() only selects these after a cpuid check.
// ---------------------------------------------------------------------

/// FloatStep on four lanes: fmadd (L2), add of |d| (L1), max of |d|
/// (Lmax).
template <MetricKind K>
__attribute__((target("avx2,fma"))) inline __m256d VecStep(__m256d acc,
                                                           __m256d d) {
  if constexpr (K == kL2) {
    return _mm256_fmadd_pd(d, d, acc);
  } else {
    const __m256d abs_d = _mm256_and_pd(
        _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL)), d);
    if constexpr (K == kL1) {
      return _mm256_add_pd(acc, abs_d);
    } else {
      return _mm256_max_pd(acc, abs_d);
    }
  }
}

/// Merges the two accumulator vectors and folds their four lanes into
/// one double, in a fixed order the scalar tail then continues from.
template <MetricKind K>
__attribute__((target("avx2,fma"))) inline double FoldLanes(__m256d acc0,
                                                            __m256d acc1) {
  if constexpr (K == kLmax) {
    const __m256d v = _mm256_max_pd(acc0, acc1);
    const __m128d lo =
        _mm_max_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
    return _mm_cvtsd_f64(_mm_max_sd(lo, _mm_unpackhi_pd(lo, lo)));
  } else {
    const __m256d v = _mm256_add_pd(acc0, acc1);
    const __m128d lo =
        _mm_add_pd(_mm256_castpd256_pd128(v), _mm256_extractf128_pd(v, 1));
    return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
  }
}

/// Four floats widened to doubles.
__attribute__((target("avx2"))) inline __m256d Widen4(const float* p) {
  return _mm256_cvtps_pd(_mm_loadu_ps(p));
}

/// Eight dimensions per iteration on two accumulator chains, then four,
/// then the fused scalar tail.
template <MetricKind K>
__attribute__((target("avx2,fma"))) double PairAvx2(const float* a,
                                                    const float* b,
                                                    std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    acc0 = VecStep<K>(acc0, _mm256_sub_pd(Widen4(a + i), Widen4(b + i)));
    acc1 = VecStep<K>(acc1,
                      _mm256_sub_pd(Widen4(a + i + 4), Widen4(b + i + 4)));
  }
  if (i + 4 <= n) {
    acc0 = VecStep<K>(acc0, _mm256_sub_pd(Widen4(a + i), Widen4(b + i)));
    i += 4;
  }
  double acc = FoldLanes<K>(acc0, acc1);
  for (; i < n; ++i) {
    acc = FloatStep<K, true>(
        acc, static_cast<double>(a[i]) - static_cast<double>(b[i]));
  }
  return acc;
}

/// Rows of dim <= 16 fit the four-register hoist of BlockAvx2.
inline constexpr std::size_t kBlockHoistDim = 16;

/// The block kernel hoists each candidate row into registers for
/// dim <= 16 (one to four widened vectors) and replays PairAvx2's exact
/// op sequence per query, so every value stays bit-identical to the
/// one-to-one kernel; wider rows stream PairAvx2 point-major.
template <MetricKind K>
__attribute__((target("avx2,fma"))) void BlockAvx2(
    const float* queries, std::size_t num_queries, const float* points,
    std::size_t count, std::size_t dim, double* out) {
  if (dim > kBlockHoistDim) {
    for (std::size_t i = 0; i < count; ++i) {
      const float* p = points + i * dim;
      for (std::size_t q = 0; q < num_queries; ++q) {
        out[q * count + i] = PairAvx2<K>(queries + q * dim, p, dim);
      }
    }
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    const float* p = points + i * dim;
    __m256d prow[kBlockHoistDim / 4] = {_mm256_setzero_pd(),
                                        _mm256_setzero_pd(),
                                        _mm256_setzero_pd(),
                                        _mm256_setzero_pd()};
    for (std::size_t c = 0; c * 4 + 4 <= dim; ++c) {
      prow[c] = Widen4(p + c * 4);
    }
    for (std::size_t q = 0; q < num_queries; ++q) {
      const float* a = queries + q * dim;
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      std::size_t j = 0;
      for (; j + 8 <= dim; j += 8) {
        acc0 = VecStep<K>(acc0, _mm256_sub_pd(Widen4(a + j), prow[j / 4]));
        acc1 = VecStep<K>(acc1,
                          _mm256_sub_pd(Widen4(a + j + 4), prow[j / 4 + 1]));
      }
      if (j + 4 <= dim) {
        acc0 = VecStep<K>(acc0, _mm256_sub_pd(Widen4(a + j), prow[j / 4]));
        j += 4;
      }
      double acc = FoldLanes<K>(acc0, acc1);
      for (; j < dim; ++j) {
        acc = FloatStep<K, true>(
            acc, static_cast<double>(a[j]) - static_cast<double>(p[j]));
      }
      out[q * count + i] = acc;
    }
  }
}

// ---------------------------------------------------------------------
// AVX2 SQ8 code reductions. Rows are chunked as 16-byte vectors plus one
// 8-byte half-vector (_mm_loadl_epi64 zeroes the upper half, which
// contributes 0 to all three reductions) plus a scalar tail — never
// reading past the row, so code buffers need no padding. The common
// dims 8/16/24/32 are fully vectorized. Integer arithmetic is exact:
// these return the scalar reductions bit for bit.
// ---------------------------------------------------------------------

__attribute__((target("avx2"))) inline std::uint32_t HorizontalSumU32(
    __m256i v) {
  __m128i lo = _mm256_castsi256_si128(v);
  const __m128i hi = _mm256_extracti128_si256(v, 1);
  lo = _mm_add_epi32(lo, hi);
  lo = _mm_add_epi32(lo, _mm_srli_si128(lo, 8));
  lo = _mm_add_epi32(lo, _mm_srli_si128(lo, 4));
  return static_cast<std::uint32_t>(_mm_cvtsi128_si32(lo));
}

__attribute__((target("avx2"))) std::uint32_t Sq8SadAvx2(const std::uint8_t* a,
                                                         const std::uint8_t* b,
                                                         std::size_t n) {
  __m128i acc = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    acc = _mm_add_epi64(acc, _mm_sad_epu8(va, vb));
  }
  if (i + 8 <= n) {
    const __m128i va =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + i));
    acc = _mm_add_epi64(acc, _mm_sad_epu8(va, vb));
    i += 8;
  }
  std::uint64_t sum = static_cast<std::uint64_t>(_mm_extract_epi64(acc, 0)) +
                      static_cast<std::uint64_t>(_mm_extract_epi64(acc, 1));
  for (; i < n; ++i) {
    sum += static_cast<std::uint64_t>(a[i] > b[i] ? a[i] - b[i] : b[i] - a[i]);
  }
  return static_cast<std::uint32_t>(sum);
}

__attribute__((target("avx2"))) std::uint32_t Sq8SsdAvx2(const std::uint8_t* a,
                                                         const std::uint8_t* b,
                                                         std::size_t n) {
  // Widen to 16-bit before differencing: |delta| reaches 255, which does
  // not fit the signed-int8 operand maddubs would need, so the kernel is
  // cvtepu8 + sub + madd (d*d pairs summed into epi32 lanes). Per-lane
  // totals stay below 2^31 for any dim <= 65535.
  __m256i acc = _mm256_setzero_si256();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256i va = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i)));
    const __m256i vb = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i)));
    const __m256i d = _mm256_sub_epi16(va, vb);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d, d));
  }
  if (i + 8 <= n) {
    const __m256i va = _mm256_cvtepu8_epi16(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a + i)));
    const __m256i vb = _mm256_cvtepu8_epi16(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + i)));
    const __m256i d = _mm256_sub_epi16(va, vb);
    acc = _mm256_add_epi32(acc, _mm256_madd_epi16(d, d));
    i += 8;
  }
  std::uint32_t sum = HorizontalSumU32(acc);
  for (; i < n; ++i) {
    const std::int32_t d =
        static_cast<std::int32_t>(a[i]) - static_cast<std::int32_t>(b[i]);
    sum += static_cast<std::uint32_t>(d * d);
  }
  return sum;
}

__attribute__((target("avx2"))) std::uint32_t Sq8MadAvx2(const std::uint8_t* a,
                                                         const std::uint8_t* b,
                                                         std::size_t n) {
  __m128i acc = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m128i va =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(b + i));
    // Unsigned |a - b| via saturating subtraction both ways.
    acc = _mm_max_epu8(
        acc, _mm_or_si128(_mm_subs_epu8(va, vb), _mm_subs_epu8(vb, va)));
  }
  if (i + 8 <= n) {
    const __m128i va =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(a + i));
    const __m128i vb =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(b + i));
    acc = _mm_max_epu8(
        acc, _mm_or_si128(_mm_subs_epu8(va, vb), _mm_subs_epu8(vb, va)));
    i += 8;
  }
  acc = _mm_max_epu8(acc, _mm_srli_si128(acc, 8));
  acc = _mm_max_epu8(acc, _mm_srli_si128(acc, 4));
  acc = _mm_max_epu8(acc, _mm_srli_si128(acc, 2));
  acc = _mm_max_epu8(acc, _mm_srli_si128(acc, 1));
  std::uint32_t best =
      static_cast<std::uint32_t>(_mm_cvtsi128_si32(acc)) & 0xffu;
  for (; i < n; ++i) {
    best = std::max(best, static_cast<std::uint32_t>(
                              a[i] > b[i] ? a[i] - b[i] : b[i] - a[i]));
  }
  return best;
}

/// The AVX2 SQ8 pair kernel of metric K.
template <MetricKind K>
__attribute__((target("avx2"))) inline std::uint32_t Sq8PairAvx2(
    const std::uint8_t* a, const std::uint8_t* b, std::size_t n) {
  if constexpr (K == kL1) {
    return Sq8SadAvx2(a, b, n);
  } else if constexpr (K == kL2) {
    return Sq8SsdAvx2(a, b, n);
  } else {
    return Sq8MadAvx2(a, b, n);
  }
}

/// One-to-many SQ8 reductions: the query row is widened into registers
/// once, candidates stream past it, and (on the d = 8 / 16 / 32 fast
/// paths) multiple candidates' accumulators are reduced together
/// through one hadd tree — the per-pair indirect call and per-pair
/// horizontal sum of a naive loop are what made the integer sweep lose
/// to the float block kernels. Reductions are exact integer sums, so
/// any evaluation order is bit-identical to the scalar reference. Row
/// loads are exact-width (16B at d=16, 2x16B at d=32, two whole rows
/// per 16B at d=8; sub-16B tails take narrow loads or the scalar loop):
/// no overread past the last row of the codes array. Other dims fall
/// back to the pair kernel, called directly (inlinable) instead of
/// through the dispatch table.

__attribute__((target("avx2"))) void Sq8SadManyAvx2(
    const std::uint8_t* query, const std::uint8_t* codes, std::size_t count,
    std::size_t dim, std::uint32_t* out) {
  if (dim == 16) {
    const __m128i q =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(query));
    for (std::size_t i = 0; i < count; ++i) {
      const __m128i s = _mm_sad_epu8(
          q, _mm_loadu_si128(
                 reinterpret_cast<const __m128i*>(codes + i * 16)));
      out[i] = static_cast<std::uint32_t>(
          _mm_cvtsi128_si32(_mm_add_epi64(s, _mm_srli_si128(s, 8))));
    }
    return;
  }
  if (dim == 32) {
    const __m128i q0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(query));
    const __m128i q1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(query + 16));
    for (std::size_t i = 0; i < count; ++i) {
      const std::uint8_t* p = codes + i * 32;
      const __m128i s = _mm_add_epi64(
          _mm_sad_epu8(
              q0, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p))),
          _mm_sad_epu8(
              q1, _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16))));
      out[i] = static_cast<std::uint32_t>(
          _mm_cvtsi128_si32(_mm_add_epi64(s, _mm_srli_si128(s, 8))));
    }
    return;
  }
  if (dim == 8) {
    const __m128i ql =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(query));
    // Query doubled: one 16-byte row load covers TWO candidates, and
    // one psadbw produces both row sums (one per 64-bit half).
    const __m128i q2 = _mm_unpacklo_epi64(ql, ql);
    std::size_t i = 0;
    for (; i + 2 <= count; i += 2) {
      const __m128i s = _mm_sad_epu8(
          q2, _mm_loadu_si128(
                  reinterpret_cast<const __m128i*>(codes + i * 8)));
      out[i] = static_cast<std::uint32_t>(_mm_cvtsi128_si32(s));
      out[i + 1] = static_cast<std::uint32_t>(_mm_extract_epi32(s, 2));
    }
    if (i < count) {
      const __m128i s = _mm_sad_epu8(
          ql,
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + i * 8)));
      out[i] = static_cast<std::uint32_t>(_mm_cvtsi128_si32(s));
    }
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = Sq8SadAvx2(query, codes + i * dim, dim);
  }
}

__attribute__((target("avx2"))) void Sq8SsdManyAvx2(
    const std::uint8_t* query, const std::uint8_t* codes, std::size_t count,
    std::size_t dim, std::uint32_t* out) {
  if (dim == 16) {
    const __m256i q = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(query)));
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
      const std::uint8_t* p = codes + i * 16;
      const __m256i d0 = _mm256_sub_epi16(
          q, _mm256_cvtepu8_epi16(_mm_loadu_si128(
                 reinterpret_cast<const __m128i*>(p))));
      const __m256i d1 = _mm256_sub_epi16(
          q, _mm256_cvtepu8_epi16(_mm_loadu_si128(
                 reinterpret_cast<const __m128i*>(p + 16))));
      const __m256i d2 = _mm256_sub_epi16(
          q, _mm256_cvtepu8_epi16(_mm_loadu_si128(
                 reinterpret_cast<const __m128i*>(p + 32))));
      const __m256i d3 = _mm256_sub_epi16(
          q, _mm256_cvtepu8_epi16(_mm_loadu_si128(
                 reinterpret_cast<const __m128i*>(p + 48))));
      // hadd tree: [sum(d0), sum(d1), sum(d2), sum(d3)] per 128-bit
      // half, then fold the halves — four horizontal sums for the price
      // of one.
      const __m256i h = _mm256_hadd_epi32(
          _mm256_hadd_epi32(_mm256_madd_epi16(d0, d0),
                            _mm256_madd_epi16(d1, d1)),
          _mm256_hadd_epi32(_mm256_madd_epi16(d2, d2),
                            _mm256_madd_epi16(d3, d3)));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                       _mm_add_epi32(_mm256_castsi256_si128(h),
                                     _mm256_extracti128_si256(h, 1)));
    }
    for (; i < count; ++i) {
      out[i] = Sq8SsdAvx2(query, codes + i * 16, 16);
    }
    return;
  }
  if (dim == 32) {
    const __m256i q0 = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(query)));
    const __m256i q1 = _mm256_cvtepu8_epi16(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(query + 16)));
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
      __m256i acc[4];
      for (std::size_t c = 0; c < 4; ++c) {
        const std::uint8_t* p = codes + (i + c) * 32;
        const __m256i d0 = _mm256_sub_epi16(
            q0, _mm256_cvtepu8_epi16(_mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(p))));
        const __m256i d1 = _mm256_sub_epi16(
            q1, _mm256_cvtepu8_epi16(_mm_loadu_si128(
                    reinterpret_cast<const __m128i*>(p + 16))));
        acc[c] = _mm256_add_epi32(_mm256_madd_epi16(d0, d0),
                                  _mm256_madd_epi16(d1, d1));
      }
      const __m256i h =
          _mm256_hadd_epi32(_mm256_hadd_epi32(acc[0], acc[1]),
                            _mm256_hadd_epi32(acc[2], acc[3]));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                       _mm_add_epi32(_mm256_castsi256_si128(h),
                                     _mm256_extracti128_si256(h, 1)));
    }
    for (; i < count; ++i) {
      out[i] = Sq8SsdAvx2(query, codes + i * 32, 32);
    }
    return;
  }
  if (dim == 8) {
    // Query doubled across the 256-bit register: each 16-byte load
    // brings TWO whole rows, one widening + one madd covers both, and
    // the hadd tree folds four rows per iteration — half the loads and
    // widenings of a one-row-per-load shape.
    const __m256i q2 = _mm256_broadcastsi128_si256(_mm_cvtepu8_epi16(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(query))));
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
      const std::uint8_t* p = codes + i * 8;
      const __m256i r01 = _mm256_cvtepu8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
      const __m256i r23 = _mm256_cvtepu8_epi16(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16)));
      const __m256i d01 = _mm256_sub_epi16(q2, r01);
      const __m256i d23 = _mm256_sub_epi16(q2, r23);
      // madd lanes: [row0 x4 | row1 x4] and [row2 x4 | row3 x4]; two
      // hadds then leave [r0, r2 | r1, r3] pairs that interleave back
      // into row order with one unpack.
      const __m256i h = _mm256_hadd_epi32(_mm256_madd_epi16(d01, d01),
                                          _mm256_madd_epi16(d23, d23));
      const __m256i h2 = _mm256_hadd_epi32(h, h);
      _mm_storeu_si128(
          reinterpret_cast<__m128i*>(out + i),
          _mm_unpacklo_epi32(_mm256_castsi256_si128(h2),
                             _mm256_extracti128_si256(h2, 1)));
    }
    for (; i < count; ++i) {
      out[i] = Sq8SsdAvx2(query, codes + i * 8, 8);
    }
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = Sq8SsdAvx2(query, codes + i * dim, dim);
  }
}

__attribute__((target("avx2"))) void Sq8MadManyAvx2(
    const std::uint8_t* query, const std::uint8_t* codes, std::size_t count,
    std::size_t dim, std::uint32_t* out) {
  const auto reduce_max = [](__m128i v) {
    v = _mm_max_epu8(v, _mm_srli_si128(v, 8));
    v = _mm_max_epu8(v, _mm_srli_si128(v, 4));
    v = _mm_max_epu8(v, _mm_srli_si128(v, 2));
    v = _mm_max_epu8(v, _mm_srli_si128(v, 1));
    return static_cast<std::uint32_t>(_mm_cvtsi128_si32(v)) & 0xffu;
  };
  if (dim == 16) {
    const __m128i q =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(query));
    for (std::size_t i = 0; i < count; ++i) {
      const __m128i p = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(codes + i * 16));
      out[i] = reduce_max(
          _mm_or_si128(_mm_subs_epu8(q, p), _mm_subs_epu8(p, q)));
    }
    return;
  }
  if (dim == 32) {
    const __m128i q0 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(query));
    const __m128i q1 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(query + 16));
    for (std::size_t i = 0; i < count; ++i) {
      const __m128i p0 = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(codes + i * 32));
      const __m128i p1 = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(codes + i * 32 + 16));
      out[i] = reduce_max(_mm_max_epu8(
          _mm_or_si128(_mm_subs_epu8(q0, p0), _mm_subs_epu8(p0, q0)),
          _mm_or_si128(_mm_subs_epu8(q1, p1), _mm_subs_epu8(p1, q1))));
    }
    return;
  }
  if (dim == 8) {
    // Query doubled across the register: one 16-byte load covers TWO
    // rows, and the max tree stays inside each 64-bit half so both row
    // maxima survive to the extract.
    const __m128i ql =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(query));
    const __m128i q2 = _mm_unpacklo_epi64(ql, ql);
    std::size_t i = 0;
    for (; i + 2 <= count; i += 2) {
      const __m128i p = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(codes + i * 8));
      __m128i ad =
          _mm_or_si128(_mm_subs_epu8(q2, p), _mm_subs_epu8(p, q2));
      ad = _mm_max_epu8(ad, _mm_srli_epi64(ad, 32));
      ad = _mm_max_epu8(ad, _mm_srli_epi64(ad, 16));
      ad = _mm_max_epu8(ad, _mm_srli_epi64(ad, 8));
      out[i] = static_cast<std::uint32_t>(_mm_extract_epi8(ad, 0)) & 0xffu;
      out[i + 1] =
          static_cast<std::uint32_t>(_mm_extract_epi8(ad, 8)) & 0xffu;
    }
    for (; i < count; ++i) {
      const __m128i p =
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(codes + i * 8));
      out[i] = reduce_max(
          _mm_or_si128(_mm_subs_epu8(ql, p), _mm_subs_epu8(p, ql)));
    }
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = Sq8MadAvx2(query, codes + i * dim, dim);
  }
}

/// The fused filter: the pair kernel per row and a compare, except for
/// SSD at d = 16 and d = 8, whose reduction trees (the same as
/// Sq8SsdManyAvx2's) compare the row sums against the cutoff
/// in-register and store only surviving row indices: at join-style
/// survivor rates (~1%) the store side is a rare branch instead of a
/// full uint32 stream plus a second filter pass. Reductions are at most
/// dim * 255^2 < 2^31, so the signed packed compare is exact once the
/// cutoff saturates at INT32_MAX (any larger cutoff keeps every row
/// anyway).
template <MetricKind K>
__attribute__((target("avx2"))) std::size_t Sq8ManyUnderAvx2(
    const std::uint8_t* query, const std::uint8_t* codes, std::size_t count,
    std::size_t dim, std::uint32_t cutoff, std::uint32_t* out_idx) {
  std::size_t n = 0;
  std::size_t i = 0;
  if constexpr (K == kL2) {
    const int cut32 =
        static_cast<int>(cutoff > 0x7fffffffu ? 0x7fffffffu : cutoff);
    if (dim == 16) {
      // Eight rows per iteration: each 32-byte load covers two rows
      // (in-lane byte unpacks widen them against the twice-broadcast
      // query), and one three-level hadd tree reduces all eight row
      // sums into a single 256-bit vector for one packed compare. The
      // tree interleaves lanes as [r0 r2 r4 r6 | r1 r3 r5 r7], so the
      // mask bits are consumed in ascending ROW order through kPerm to
      // keep out_idx sorted. Shuffle-port pressure drops from 2.5 to
      // ~1.9 uops per row versus a four-row cvtepu8 shape, which is
      // the kernel's bottleneck on one-port-shuffle cores.
      const __m256i zero = _mm256_setzero_si256();
      const __m256i qq = _mm256_broadcastsi128_si256(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(query)));
      const __m256i q0 = _mm256_unpacklo_epi8(qq, zero);
      const __m256i q1 = _mm256_unpackhi_epi8(qq, zero);
      const __m256i cut8 = _mm256_set1_epi32(cut32);
      static constexpr int kPerm[8] = {0, 4, 1, 5, 2, 6, 3, 7};
      for (; i + 8 <= count; i += 8) {
        const std::uint8_t* p = codes + i * 16;
        __m256i s[4];
        for (int k = 0; k < 4; ++k) {
          const __m256i v = _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(p + k * 32));
          const __m256i lo =
              _mm256_sub_epi16(_mm256_unpacklo_epi8(v, zero), q0);
          const __m256i hi =
              _mm256_sub_epi16(_mm256_unpackhi_epi8(v, zero), q1);
          s[k] = _mm256_add_epi32(_mm256_madd_epi16(lo, lo),
                                  _mm256_madd_epi16(hi, hi));
        }
        const __m256i h =
            _mm256_hadd_epi32(_mm256_hadd_epi32(s[0], s[1]),
                              _mm256_hadd_epi32(s[2], s[3]));
        const int over = _mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpgt_epi32(h, cut8)));
        const int keep = over ^ 0xff;
        if (keep) {
          for (int k = 0; k < 8; ++k) {
            if (keep & (1 << kPerm[k])) {
              out_idx[n++] = static_cast<std::uint32_t>(i) +
                             static_cast<std::uint32_t>(k);
            }
          }
        }
      }
    } else if (dim == 8) {
      const __m128i cut = _mm_set1_epi32(cut32);
      const __m256i q2 = _mm256_broadcastsi128_si256(_mm_cvtepu8_epi16(
          _mm_loadl_epi64(reinterpret_cast<const __m128i*>(query))));
      for (; i + 4 <= count; i += 4) {
        const std::uint8_t* p = codes + i * 8;
        const __m256i r01 = _mm256_cvtepu8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
        const __m256i r23 = _mm256_cvtepu8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16)));
        const __m256i d01 = _mm256_sub_epi16(q2, r01);
        const __m256i d23 = _mm256_sub_epi16(q2, r23);
        const __m256i h = _mm256_hadd_epi32(_mm256_madd_epi16(d01, d01),
                                            _mm256_madd_epi16(d23, d23));
        const __m256i h2 = _mm256_hadd_epi32(h, h);
        const __m128i vals =
            _mm_unpacklo_epi32(_mm256_castsi256_si128(h2),
                               _mm256_extracti128_si256(h2, 1));
        int keep = _mm_movemask_ps(_mm_castsi128_ps(
                       _mm_cmpgt_epi32(vals, cut))) ^ 0xf;
        while (keep) {
          const int b = __builtin_ctz(static_cast<unsigned>(keep));
          out_idx[n++] = static_cast<std::uint32_t>(i) +
                         static_cast<std::uint32_t>(b);
          keep &= keep - 1;
        }
      }
    }
  }
  for (; i < count; ++i) {
    if (Sq8PairAvx2<K>(query, codes + i * dim, dim) <= cutoff) {
      out_idx[n++] = static_cast<std::uint32_t>(i);
    }
  }
  return n;
}

/// One dimension's step for four boxes: acc op gap(q, lo, hi).
template <MetricKind K>
__attribute__((target("avx2"))) inline __m256d MinDistStep(__m256d acc,
                                                            __m256d q,
                                                            __m128 lo,
                                                            __m128 hi) {
  const __m256d below = _mm256_sub_pd(_mm256_cvtps_pd(lo), q);
  const __m256d above = _mm256_sub_pd(q, _mm256_cvtps_pd(hi));
  const __m256d gap = _mm256_max_pd(_mm256_setzero_pd(),
                                    _mm256_max_pd(above, below));
  if constexpr (K == kL2) {
    return _mm256_add_pd(acc, _mm256_mul_pd(gap, gap));
  } else if constexpr (K == kL1) {
    return _mm256_add_pd(acc, gap);
  } else {
    return _mm256_max_pd(gap, acc);
  }
}

/// Eight boxes per iteration (two independent accumulator chains), then
/// four, then the last one to three through masked loads and stores, so
/// nothing reads or writes past the image.
template <MetricKind K>
__attribute__((target("avx2"))) void MinDistManyAvx2(
    const float* query, const float* lo, const float* hi, std::size_t count,
    std::size_t stride, std::size_t dim, double* out) {
  std::size_t j = 0;
  for (; j + 8 <= count; j += 8) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    for (std::size_t i = 0; i < dim; ++i) {
      const __m256d q = _mm256_set1_pd(static_cast<double>(query[i]));
      const float* l = lo + i * stride + j;
      const float* h = hi + i * stride + j;
      acc0 = MinDistStep<K>(acc0, q, _mm_loadu_ps(l), _mm_loadu_ps(h));
      acc1 = MinDistStep<K>(acc1, q, _mm_loadu_ps(l + 4),
                                _mm_loadu_ps(h + 4));
    }
    _mm256_storeu_pd(out + j, acc0);
    _mm256_storeu_pd(out + j + 4, acc1);
  }
  if (j + 4 <= count) {
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t i = 0; i < dim; ++i) {
      const __m256d q = _mm256_set1_pd(static_cast<double>(query[i]));
      acc = MinDistStep<K>(acc, q, _mm_loadu_ps(lo + i * stride + j),
                               _mm_loadu_ps(hi + i * stride + j));
    }
    _mm256_storeu_pd(out + j, acc);
    j += 4;
  }
  if (j < count) {
    const int rest = static_cast<int>(count - j);
    const __m128i mask = _mm_cmpgt_epi32(_mm_set1_epi32(rest),
                                         _mm_setr_epi32(0, 1, 2, 3));
    __m256d acc = _mm256_setzero_pd();
    for (std::size_t i = 0; i < dim; ++i) {
      const __m256d q = _mm256_set1_pd(static_cast<double>(query[i]));
      acc = MinDistStep<K>(acc, q,
                               _mm_maskload_ps(lo + i * stride + j, mask),
                               _mm_maskload_ps(hi + i * stride + j, mask));
    }
    _mm256_maskstore_pd(out + j, _mm256_cvtepi32_epi64(mask), acc);
  }
}

// ---------------------------------------------------------------------
// AVX-512 SSD kernels at d = 16, the similarity join's integer filter.
// Sixteen rows per step, one row per 128-bit lane of four 64-byte
// loads: in-lane byte unpacks widen each row against zero, a
// four-times-broadcast query is subtracted, and madd + dpwssd leave four
// partial sums per row. One in-lane 4x4 transpose-add and one cross-lane
// permute put the sixteen row sums in row order: 15 shuffle uops per 16
// rows against the AVX2 filter's 28. The last count % 16 rows run the
// same step through masked loads, so nothing is read past the codes.
// Other dims call the AVX2 kernels. GCC 12 reports the
// _mm512_undefined_epi32() operand inside avx512fintrin.h's broadcast,
// unpack and permute intrinsics as -Wmaybe-uninitialized (GCC bug
// 105593, fixed in GCC 13); the suppression covers this block only.
// ---------------------------------------------------------------------

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

/// The d = 16 query row, widened to 16 bits in every 128-bit lane: its
/// low eight bytes in `lo`, its high eight in `hi`.
struct Ssd16Query {
  __m512i lo, hi;
};

__attribute__((target("avx512f,avx512bw"))) inline Ssd16Query WidenQuery16(
    const std::uint8_t* query) {
  const __m512i zero = _mm512_setzero_si512();
  const __m512i qq = _mm512_broadcast_i32x4(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(query)));
  return {_mm512_unpacklo_epi8(qq, zero), _mm512_unpackhi_epi8(qq, zero)};
}

/// The SSDs of the d = 16 rows p[0 .. rows) against `q`, element r
/// holding row r. kPartial loads only the first `rows` (< 16) rows; the
/// elements past them hold the SSD of a zero row and must be masked off.
template <bool kPartial>
__attribute__((target("avx512f,avx512bw,avx512vnni"))) inline __m512i
Ssd16Rows(const std::uint8_t* p, const Ssd16Query& q, std::size_t rows) {
  const __m512i zero = _mm512_setzero_si512();
  __m512i s[4];
  for (std::size_t k = 0; k < 4; ++k) {
    __m512i v;
    if constexpr (kPartial) {
      const std::size_t bytes =
          rows * 16 > k * 64 ? std::min<std::size_t>(64, rows * 16 - k * 64)
                             : 0;
      const __mmask64 m =
          bytes == 64 ? ~__mmask64{0} : (__mmask64{1} << bytes) - 1;
      v = _mm512_maskz_loadu_epi8(m, p + k * 64);
    } else {
      v = _mm512_loadu_si512(p + k * 64);
    }
    const __m512i lo = _mm512_sub_epi16(_mm512_unpacklo_epi8(v, zero), q.lo);
    const __m512i hi = _mm512_sub_epi16(_mm512_unpackhi_epi8(v, zero), q.hi);
    s[k] = _mm512_dpwssd_epi32(_mm512_madd_epi16(lo, lo), hi, hi);
  }
  // Lane L of s[k] holds row 4k + L's four partials. After the
  // transpose-add, element 4L + k of t is row 4k + L's sum.
  const __m512i ab = _mm512_add_epi32(_mm512_unpacklo_epi32(s[0], s[1]),
                                      _mm512_unpackhi_epi32(s[0], s[1]));
  const __m512i cd = _mm512_add_epi32(_mm512_unpacklo_epi32(s[2], s[3]),
                                      _mm512_unpackhi_epi32(s[2], s[3]));
  const __m512i t = _mm512_add_epi32(_mm512_unpacklo_epi64(ab, cd),
                                     _mm512_unpackhi_epi64(ab, cd));
  const __m512i row_order = _mm512_setr_epi32(0, 4, 8, 12, 1, 5, 9, 13, 2, 6,
                                              10, 14, 3, 7, 11, 15);
  return _mm512_permutexvar_epi32(row_order, t);
}

__attribute__((target("avx512f,avx512bw,avx512vnni"))) void Sq8SsdManyAvx512(
    const std::uint8_t* query, const std::uint8_t* codes, std::size_t count,
    std::size_t dim, std::uint32_t* out) {
  if (dim != 16) {
    Sq8SsdManyAvx2(query, codes, count, dim, out);
    return;
  }
  const Ssd16Query q = WidenQuery16(query);
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    _mm512_storeu_si512(out + i, Ssd16Rows<false>(codes + i * 16, q, 16));
  }
  if (i < count) {
    const std::size_t rest = count - i;
    _mm512_mask_storeu_epi32(out + i, static_cast<__mmask16>((1u << rest) - 1),
                             Ssd16Rows<true>(codes + i * 16, q, rest));
  }
}

/// Appends the indices of `idx` that `keep` selects to out_idx[n ..] and
/// returns the new count. Storing only for a non-empty mask keeps
/// out_idx ascending and writes nothing past the count.
__attribute__((target("avx512f,popcnt"))) inline std::size_t AppendSurvivors(
    std::uint32_t* out_idx, std::size_t n, __mmask16 keep, __m512i idx) {
  if (keep) {
    _mm512_mask_compressstoreu_epi32(out_idx + n, keep, idx);
    n += static_cast<std::size_t>(_mm_popcnt_u32(keep));
  }
  return n;
}

/// The fused filter on the same step. The compare is unsigned, so any
/// cutoff is exact without a clamp.
__attribute__((target("avx512f,avx512bw,avx512vnni,popcnt"))) std::size_t
Sq8SsdManyUnderAvx512(const std::uint8_t* query, const std::uint8_t* codes,
                      std::size_t count, std::size_t dim,
                      std::uint32_t cutoff, std::uint32_t* out_idx) {
  if (dim != 16) {
    return Sq8ManyUnderAvx2<kL2>(query, codes, count, dim, cutoff, out_idx);
  }
  const Ssd16Query q = WidenQuery16(query);
  const __m512i cut = _mm512_set1_epi32(static_cast<int>(cutoff));
  __m512i idx =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  const __m512i step = _mm512_set1_epi32(16);
  std::size_t n = 0;
  std::size_t i = 0;
  for (; i + 16 <= count; i += 16) {
    n = AppendSurvivors(
        out_idx, n,
        _mm512_cmple_epu32_mask(Ssd16Rows<false>(codes + i * 16, q, 16), cut),
        idx);
    idx = _mm512_add_epi32(idx, step);
  }
  if (i < count) {
    const std::size_t rest = count - i;
    n = AppendSurvivors(out_idx, n,
                        _mm512_mask_cmple_epu32_mask(
                            static_cast<__mmask16>((1u << rest) - 1),
                            Ssd16Rows<true>(codes + i * 16, q, rest), cut),
                        idx);
  }
  return n;
}

#pragma GCC diagnostic pop

#endif  // PARSIM_METRIC_X86

// ---------------------------------------------------------------------
// The kernel table: one row per metric, indexed by MetricKind.
// ---------------------------------------------------------------------

static_assert(static_cast<int>(kL1) == 0 && static_cast<int>(kL2) == 1 &&
              static_cast<int>(kLmax) == 2);

template <MetricKind K>
constexpr detail::KernelRow kPortableRow = {
    PairUnrolled<K>, BlockUnrolled<K>, MinDistManyUnrolled<K>,
    Sq8ManyUnrolled<K>, Sq8ManyUnderUnrolled<K>};

constexpr detail::KernelRow kPortableRows[] = {
    kPortableRow<kL1>, kPortableRow<kL2>, kPortableRow<kLmax>};

#ifdef PARSIM_METRIC_X86
/// The one-to-many SQ8 kernels stay per metric; the rest are templates.
template <MetricKind K>
constexpr detail::KernelRow Avx2Row(decltype(detail::KernelRow::sq8_many)
                                        sq8_many) {
  return {PairAvx2<K>, BlockAvx2<K>, MinDistManyAvx2<K>, sq8_many,
          Sq8ManyUnderAvx2<K>};
}

constexpr detail::KernelRow kAvx2Rows[] = {Avx2Row<kL1>(Sq8SadManyAvx2),
                                           Avx2Row<kL2>(Sq8SsdManyAvx2),
                                           Avx2Row<kLmax>(Sq8MadManyAvx2)};

/// The AVX2 table with L2's two SQ8 one-to-many entries replaced. The
/// float entries stay because their summation order is part of every
/// value; the L1 and Lmax SQ8 entries stay because no workload runs
/// them.
constexpr detail::KernelRow kAvx512Rows[] = {
    kAvx2Rows[0],
    {PairAvx2<kL2>, BlockAvx2<kL2>, MinDistManyAvx2<kL2>, Sq8SsdManyAvx512,
     Sq8SsdManyUnderAvx512},
    kAvx2Rows[2]};
#endif

detail::KernelTier PickTier() {
#ifdef PARSIM_METRIC_X86
  // The SQ8 and MINDIST kernels only need avx2, but they dispatch
  // together with the float kernels: one cpuid decision, one table.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512vnni")) {
      return detail::KernelTier::kAvx512;
    }
    return detail::KernelTier::kAvx2;
  }
#endif
  return detail::KernelTier::kPortable;
}

/// Indexed by KernelTier; a host only dispatches to tiers it has.
#ifdef PARSIM_METRIC_X86
constexpr const detail::KernelRow* kTables[] = {kPortableRows, kAvx2Rows,
                                                kAvx512Rows};
#else
constexpr const detail::KernelRow* kTables[] = {kPortableRows};
#endif

struct KernelTable {
  const detail::KernelRow* rows;
  detail::KernelTier tier;
};

const KernelTable& Kernels() {
  static const KernelTable table = [] {
    const detail::KernelTier tier = PickTier();
    return KernelTable{kTables[static_cast<std::size_t>(tier)], tier};
  }();
  return table;
}

const detail::KernelRow& Row(MetricKind kind) {
  return Kernels().rows[static_cast<std::size_t>(kind)];
}

}  // namespace

namespace detail {

bool SimdEnabled() { return Kernels().tier != KernelTier::kPortable; }

KernelTier DispatchedTier() { return Kernels().tier; }

const char* KernelTierName(KernelTier tier) {
  switch (tier) {
    case KernelTier::kPortable:
      return "portable";
    case KernelTier::kAvx2:
      return "avx2";
    case KernelTier::kAvx512:
      return "avx512";
  }
  PARSIM_UNREACHABLE();
}

const KernelRow& KernelRowFor(MetricKind kind, KernelTier tier) {
  PARSIM_CHECK(tier <= DispatchedTier());
  const KernelRow* rows = kTables[static_cast<std::size_t>(tier)];
  return rows[static_cast<std::size_t>(kind)];
}

}  // namespace detail

double SquaredL2(PointView a, PointView b) {
  PARSIM_DCHECK(a.size() == b.size());
  return Row(kL2).pair(a.data(), b.data(), a.size());
}

double L2(PointView a, PointView b) { return std::sqrt(SquaredL2(a, b)); }

double L1(PointView a, PointView b) {
  PARSIM_DCHECK(a.size() == b.size());
  return Row(kL1).pair(a.data(), b.data(), a.size());
}

double Lmax(PointView a, PointView b) {
  PARSIM_DCHECK(a.size() == b.size());
  return Row(kLmax).pair(a.data(), b.data(), a.size());
}

double Metric::Distance(PointView a, PointView b) const {
  return FromComparable(Comparable(a, b));
}

double Metric::Comparable(PointView a, PointView b) const {
  PARSIM_DCHECK(a.size() == b.size());
  return Row(kind_).pair(a.data(), b.data(), a.size());
}

ComparableFn Metric::comparable_fn() const { return Row(kind_).pair; }

double Metric::ToComparable(double distance) const {
  if (kind_ == kL2) return distance * distance;
  return distance;
}

double Metric::FromComparable(double comparable) const {
  if (kind_ == kL2) return std::sqrt(comparable);
  return comparable;
}

void Metric::ComparableMany(PointView query, const Scalar* points,
                            std::size_t count, std::size_t dim,
                            double* out) const {
  PARSIM_DCHECK(query.size() == dim);
  const ComparableFn kernel = Row(kind_).pair;
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = kernel(query.data(), points + i * dim, dim);
  }
}

void Metric::ComparableBlock(const Scalar* queries, std::size_t num_queries,
                             const Scalar* points, std::size_t count,
                             std::size_t dim, double* out) const {
  // A one-query block is exactly ComparableMany, whose kernels hoist the
  // query row into registers and stream the points past it; the block
  // kernels instead hoist each point row and re-read every query, which
  // only pays off from two queries up. Both produce bit-identical values,
  // so singleton groups can take the cheaper path.
  if (num_queries == 1) {
    ComparableMany(PointView{queries, dim}, points, count, dim, out);
    return;
  }
  Row(kind_).block(queries, num_queries, points, count, dim, out);
}

void Metric::ComparableBlockSelf(const Scalar* points, std::size_t count,
                                 std::size_t dim, double* out) const {
  // Row-tail sweep over one shared array: row i streams past rows
  // i+1..count-1 through the one-to-many kernel, so each unordered pair
  // is computed once and out[i * count + j] (j > i) carries the exact
  // value the full ComparableBlock would have put there. Entries at or
  // below the diagonal are never written.
  for (std::size_t i = 0; i + 1 < count; ++i) {
    ComparableMany(PointView{points + i * dim, dim}, points + (i + 1) * dim,
                   count - i - 1, dim, out + i * count + i + 1);
  }
}

void Metric::MinDistMany(PointView query, const Scalar* lo, const Scalar* hi,
                         std::size_t count, std::size_t stride,
                         double* out) const {
  PARSIM_DCHECK(stride >= count);
  Row(kind_).min_dist_many(query.data(), lo, hi, count, stride, query.size(),
                           out);
}

void Metric::Sq8Many(const std::uint8_t* query, const std::uint8_t* codes,
                     std::size_t count, std::size_t dim,
                     std::uint32_t* out) const {
  Row(kind_).sq8_many(query, codes, count, dim, out);
}

std::size_t Metric::Sq8ManyUnder(const std::uint8_t* query,
                                 const std::uint8_t* codes, std::size_t count,
                                 std::size_t dim, std::uint32_t cutoff,
                                 std::uint32_t* out_idx) const {
  return Row(kind_).sq8_many_under(query, codes, count, dim, cutoff, out_idx);
}

void Metric::Sq8Block(const std::uint8_t* queries, std::size_t num_queries,
                      const std::uint8_t* codes, std::size_t count,
                      std::size_t dim, std::uint32_t* out) const {
  // Query-major over the one-to-many kernel: each query's codes are
  // hoisted into registers once, and the block's code rows (dim bytes,
  // 4x smaller than the float SoA rows) stay hot in L1 across queries —
  // a whole 64-query group's rows fit the cache the float path
  // overflows.
  const auto kernel = Row(kind_).sq8_many;
  for (std::size_t q = 0; q < num_queries; ++q) {
    kernel(queries + q * dim, codes, count, dim, out + q * count);
  }
}

void Metric::Sq8BlockSelf(const std::uint8_t* queries,
                          const std::uint8_t* codes, std::size_t count,
                          std::size_t dim, std::uint32_t* out) const {
  // Same row-tail structure as ComparableBlockSelf: query row i reduces
  // against code rows i+1..count-1 only, one many-kernel launch per row.
  // Integer reductions are evaluation-order independent, so every filled
  // entry matches the corresponding Sq8Block value exactly.
  const auto kernel = Row(kind_).sq8_many;
  for (std::size_t i = 0; i + 1 < count; ++i) {
    kernel(queries + i * dim, codes + (i + 1) * dim, count - i - 1, dim,
           out + i * count + i + 1);
  }
}

}  // namespace parsim
