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

// ---------------------------------------------------------------------
// Portable fallback kernels: 4-way unrolled with independent
// accumulators so the compiler can auto-vectorize / software-pipeline.
// ---------------------------------------------------------------------

double SquaredL2Unrolled(const float* a, const float* b, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const double d0 = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    const double d1 =
        static_cast<double>(a[i + 1]) - static_cast<double>(b[i + 1]);
    const double d2 =
        static_cast<double>(a[i + 2]) - static_cast<double>(b[i + 2]);
    const double d3 =
        static_cast<double>(a[i + 3]) - static_cast<double>(b[i + 3]);
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  double sum = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return sum;
}

double L1Unrolled(const float* a, const float* b, std::size_t n) {
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
    s1 += std::abs(static_cast<double>(a[i + 1]) -
                   static_cast<double>(b[i + 1]));
    s2 += std::abs(static_cast<double>(a[i + 2]) -
                   static_cast<double>(b[i + 2]));
    s3 += std::abs(static_cast<double>(a[i + 3]) -
                   static_cast<double>(b[i + 3]));
  }
  double sum = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) {
    sum += std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
  }
  return sum;
}

double LmaxUnrolled(const float* a, const float* b, std::size_t n) {
  double m0 = 0.0, m1 = 0.0, m2 = 0.0, m3 = 0.0;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    m0 = std::max(m0, std::abs(static_cast<double>(a[i]) -
                               static_cast<double>(b[i])));
    m1 = std::max(m1, std::abs(static_cast<double>(a[i + 1]) -
                               static_cast<double>(b[i + 1])));
    m2 = std::max(m2, std::abs(static_cast<double>(a[i + 2]) -
                               static_cast<double>(b[i + 2])));
    m3 = std::max(m3, std::abs(static_cast<double>(a[i + 3]) -
                               static_cast<double>(b[i + 3])));
  }
  double best = std::max(std::max(m0, m1), std::max(m2, m3));
  for (; i < n; ++i) {
    best = std::max(best, std::abs(static_cast<double>(a[i]) -
                                   static_cast<double>(b[i])));
  }
  return best;
}

// ---------------------------------------------------------------------
// SQ8 code reductions (uint8 rows -> uint32), the quantized sweep's
// pair primitives: SAD for L1, SSD for L2, MAD for Lmax. All integer,
// so every variant — unrolled, AVX2, many, block — returns identical
// values by construction.
// ---------------------------------------------------------------------

std::uint32_t Sq8SadUnrolled(const std::uint8_t* a, const std::uint8_t* b,
                             std::size_t n) {
  std::uint32_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  std::size_t i = 0;
  const auto ad = [](std::uint8_t x, std::uint8_t y) {
    return static_cast<std::uint32_t>(x > y ? x - y : y - x);
  };
  for (; i + 4 <= n; i += 4) {
    s0 += ad(a[i], b[i]);
    s1 += ad(a[i + 1], b[i + 1]);
    s2 += ad(a[i + 2], b[i + 2]);
    s3 += ad(a[i + 3], b[i + 3]);
  }
  std::uint32_t sum = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) sum += ad(a[i], b[i]);
  return sum;
}

std::uint32_t Sq8SsdUnrolled(const std::uint8_t* a, const std::uint8_t* b,
                             std::size_t n) {
  std::uint32_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  std::size_t i = 0;
  const auto sq = [](std::uint8_t x, std::uint8_t y) {
    const std::int32_t d =
        static_cast<std::int32_t>(x) - static_cast<std::int32_t>(y);
    return static_cast<std::uint32_t>(d * d);
  };
  for (; i + 4 <= n; i += 4) {
    s0 += sq(a[i], b[i]);
    s1 += sq(a[i + 1], b[i + 1]);
    s2 += sq(a[i + 2], b[i + 2]);
    s3 += sq(a[i + 3], b[i + 3]);
  }
  std::uint32_t sum = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) sum += sq(a[i], b[i]);
  return sum;
}

std::uint32_t Sq8MadUnrolled(const std::uint8_t* a, const std::uint8_t* b,
                             std::size_t n) {
  std::uint32_t m0 = 0, m1 = 0, m2 = 0, m3 = 0;
  std::size_t i = 0;
  const auto ad = [](std::uint8_t x, std::uint8_t y) {
    return static_cast<std::uint32_t>(x > y ? x - y : y - x);
  };
  for (; i + 4 <= n; i += 4) {
    m0 = std::max(m0, ad(a[i], b[i]));
    m1 = std::max(m1, ad(a[i + 1], b[i + 1]));
    m2 = std::max(m2, ad(a[i + 2], b[i + 2]));
    m3 = std::max(m3, ad(a[i + 3], b[i + 3]));
  }
  std::uint32_t best = std::max(std::max(m0, m1), std::max(m2, m3));
  for (; i < n; ++i) best = std::max(best, ad(a[i], b[i]));
  return best;
}

#ifdef PARSIM_METRIC_X86

// ---------------------------------------------------------------------
// AVX2+FMA kernels. Coordinates are float but all arithmetic is carried
// out on doubles (floats widened in registers), matching the precision
// contract of the scalar kernels. Compiled with per-function target
// attributes so the binary still runs on pre-AVX2 hosts; PickKernels()
// only selects these after a cpuid check.
// ---------------------------------------------------------------------

__attribute__((target("avx2,fma"))) inline double HorizontalSum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(lo, lo);
  return _mm_cvtsd_f64(_mm_add_sd(lo, swapped));
}

__attribute__((target("avx2,fma"))) inline double HorizontalMax(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  const __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_max_pd(lo, hi);
  const __m128d swapped = _mm_unpackhi_pd(lo, lo);
  return _mm_cvtsd_f64(_mm_max_sd(lo, swapped));
}

__attribute__((target("avx2,fma"))) double SquaredL2Avx2(const float* a,
                                                         const float* b,
                                                         std::size_t n) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d a0 = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
    const __m256d b0 = _mm256_cvtps_pd(_mm_loadu_ps(b + i));
    const __m256d d0 = _mm256_sub_pd(a0, b0);
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    const __m256d a1 = _mm256_cvtps_pd(_mm_loadu_ps(a + i + 4));
    const __m256d b1 = _mm256_cvtps_pd(_mm_loadu_ps(b + i + 4));
    const __m256d d1 = _mm256_sub_pd(a1, b1);
    acc1 = _mm256_fmadd_pd(d1, d1, acc1);
  }
  if (i + 4 <= n) {
    const __m256d a0 = _mm256_cvtps_pd(_mm_loadu_ps(a + i));
    const __m256d b0 = _mm256_cvtps_pd(_mm_loadu_ps(b + i));
    const __m256d d0 = _mm256_sub_pd(a0, b0);
    acc0 = _mm256_fmadd_pd(d0, d0, acc0);
    i += 4;
  }
  double sum = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    const double d = static_cast<double>(a[i]) - static_cast<double>(b[i]);
    sum += d * d;
  }
  return sum;
}

__attribute__((target("avx2,fma"))) double L1Avx2(const float* a,
                                                  const float* b,
                                                  std::size_t n) {
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                                     _mm256_cvtps_pd(_mm_loadu_ps(b + i)));
    acc0 = _mm256_add_pd(acc0, _mm256_and_pd(abs_mask, d0));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i + 4)),
                      _mm256_cvtps_pd(_mm_loadu_ps(b + i + 4)));
    acc1 = _mm256_add_pd(acc1, _mm256_and_pd(abs_mask, d1));
  }
  if (i + 4 <= n) {
    const __m256d d0 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                                     _mm256_cvtps_pd(_mm_loadu_ps(b + i)));
    acc0 = _mm256_add_pd(acc0, _mm256_and_pd(abs_mask, d0));
    i += 4;
  }
  double sum = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) {
    sum += std::abs(static_cast<double>(a[i]) - static_cast<double>(b[i]));
  }
  return sum;
}

__attribute__((target("avx2,fma"))) double LmaxAvx2(const float* a,
                                                    const float* b,
                                                    std::size_t n) {
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d d0 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                                     _mm256_cvtps_pd(_mm_loadu_ps(b + i)));
    acc0 = _mm256_max_pd(acc0, _mm256_and_pd(abs_mask, d0));
    const __m256d d1 =
        _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i + 4)),
                      _mm256_cvtps_pd(_mm_loadu_ps(b + i + 4)));
    acc1 = _mm256_max_pd(acc1, _mm256_and_pd(abs_mask, d1));
  }
  if (i + 4 <= n) {
    const __m256d d0 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + i)),
                                     _mm256_cvtps_pd(_mm_loadu_ps(b + i)));
    acc0 = _mm256_max_pd(acc0, _mm256_and_pd(abs_mask, d0));
    i += 4;
  }
  double best = HorizontalMax(_mm256_max_pd(acc0, acc1));
  for (; i < n; ++i) {
    best = std::max(best, std::abs(static_cast<double>(a[i]) -
                                   static_cast<double>(b[i])));
  }
  return best;
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

__attribute__((target("avx2"))) std::size_t Sq8SadManyUnderAvx2(
    const std::uint8_t* query, const std::uint8_t* codes, std::size_t count,
    std::size_t dim, std::uint32_t cutoff, std::uint32_t* out_idx) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (Sq8SadAvx2(query, codes + i * dim, dim) <= cutoff) {
      out_idx[n++] = static_cast<std::uint32_t>(i);
    }
  }
  return n;
}

__attribute__((target("avx2"))) std::size_t Sq8SsdManyUnderAvx2(
    const std::uint8_t* query, const std::uint8_t* codes, std::size_t count,
    std::size_t dim, std::uint32_t cutoff, std::uint32_t* out_idx) {
  std::size_t n = 0;
  if (dim == 16 || dim == 8) {
    // Same reduction trees as Sq8SsdManyAvx2, but the four row sums are
    // compared against the cutoff in-register and only surviving row
    // indices are stored: at join-style survivor rates (~1%) the store
    // side is a rare branch instead of a full uint32 stream plus a
    // second filter pass. Reductions are at most dim * 255^2 < 2^31, so
    // the signed packed compare is exact once the cutoff saturates at
    // INT32_MAX (any larger cutoff keeps every row anyway).
    const __m128i cut = _mm_set1_epi32(static_cast<int>(
        cutoff > 0x7fffffffu ? 0x7fffffffu : cutoff));
    std::size_t i = 0;
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
      const __m256i cut8 = _mm256_set1_epi32(static_cast<int>(
          cutoff > 0x7fffffffu ? 0x7fffffffu : cutoff));
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
    } else {
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
    for (; i < count; ++i) {
      if (Sq8SsdAvx2(query, codes + i * dim, dim) <= cutoff) {
        out_idx[n++] = static_cast<std::uint32_t>(i);
      }
    }
    return n;
  }
  for (std::size_t i = 0; i < count; ++i) {
    if (Sq8SsdAvx2(query, codes + i * dim, dim) <= cutoff) {
      out_idx[n++] = static_cast<std::uint32_t>(i);
    }
  }
  return n;
}

__attribute__((target("avx2"))) std::size_t Sq8MadManyUnderAvx2(
    const std::uint8_t* query, const std::uint8_t* codes, std::size_t count,
    std::size_t dim, std::uint32_t cutoff, std::uint32_t* out_idx) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (Sq8MadAvx2(query, codes + i * dim, dim) <= cutoff) {
      out_idx[n++] = static_cast<std::uint32_t>(i);
    }
  }
  return n;
}

#endif  // PARSIM_METRIC_X86

using PairKernel = double (*)(const float*, const float*, std::size_t);

// ---------------------------------------------------------------------
// Many-to-many block kernels: Q queries against one contiguous block of
// candidate rows (an SoA leaf block), out[q * count + i]. The scalar
// fallbacks stream the pair kernel point-major so each candidate row is
// loaded once per sweep; the AVX2 variants additionally hoist the
// candidate row into registers for dim <= 16 (one to four widened
// vectors) and replay the pair kernel's exact op sequence per query, so
// every value stays bit-identical to the one-to-one kernel.
// ---------------------------------------------------------------------

using BlockKernel = void (*)(const float*, std::size_t, const float*,
                             std::size_t, std::size_t, double*);

void SquaredL2BlockUnrolled(const float* queries, std::size_t num_queries,
                            const float* points, std::size_t count,
                            std::size_t dim, double* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const float* p = points + i * dim;
    for (std::size_t q = 0; q < num_queries; ++q) {
      out[q * count + i] = SquaredL2Unrolled(queries + q * dim, p, dim);
    }
  }
}

void L1BlockUnrolled(const float* queries, std::size_t num_queries,
                     const float* points, std::size_t count, std::size_t dim,
                     double* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const float* p = points + i * dim;
    for (std::size_t q = 0; q < num_queries; ++q) {
      out[q * count + i] = L1Unrolled(queries + q * dim, p, dim);
    }
  }
}

void LmaxBlockUnrolled(const float* queries, std::size_t num_queries,
                       const float* points, std::size_t count, std::size_t dim,
                       double* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const float* p = points + i * dim;
    for (std::size_t q = 0; q < num_queries; ++q) {
      out[q * count + i] = LmaxUnrolled(queries + q * dim, p, dim);
    }
  }
}

#ifdef PARSIM_METRIC_X86

/// How many widened 4-lane vectors a row of `dim` floats occupies; rows
/// of dim <= 16 fit in the four-register hoist of the block kernels.
inline constexpr std::size_t kBlockHoistDim = 16;

__attribute__((target("avx2,fma"))) void SquaredL2BlockAvx2(
    const float* queries, std::size_t num_queries, const float* points,
    std::size_t count, std::size_t dim, double* out) {
  if (dim > kBlockHoistDim) {
    for (std::size_t i = 0; i < count; ++i) {
      const float* p = points + i * dim;
      for (std::size_t q = 0; q < num_queries; ++q) {
        out[q * count + i] = SquaredL2Avx2(queries + q * dim, p, dim);
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
      prow[c] = _mm256_cvtps_pd(_mm_loadu_ps(p + c * 4));
    }
    for (std::size_t q = 0; q < num_queries; ++q) {
      const float* a = queries + q * dim;
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      std::size_t j = 0;
      for (; j + 8 <= dim; j += 8) {
        const __m256d a0 = _mm256_cvtps_pd(_mm_loadu_ps(a + j));
        const __m256d d0 = _mm256_sub_pd(a0, prow[j / 4]);
        acc0 = _mm256_fmadd_pd(d0, d0, acc0);
        const __m256d a1 = _mm256_cvtps_pd(_mm_loadu_ps(a + j + 4));
        const __m256d d1 = _mm256_sub_pd(a1, prow[j / 4 + 1]);
        acc1 = _mm256_fmadd_pd(d1, d1, acc1);
      }
      if (j + 4 <= dim) {
        const __m256d a0 = _mm256_cvtps_pd(_mm_loadu_ps(a + j));
        const __m256d d0 = _mm256_sub_pd(a0, prow[j / 4]);
        acc0 = _mm256_fmadd_pd(d0, d0, acc0);
        j += 4;
      }
      double sum = HorizontalSum(_mm256_add_pd(acc0, acc1));
      for (; j < dim; ++j) {
        const double d = static_cast<double>(a[j]) - static_cast<double>(p[j]);
        sum += d * d;
      }
      out[q * count + i] = sum;
    }
  }
}

__attribute__((target("avx2,fma"))) void L1BlockAvx2(
    const float* queries, std::size_t num_queries, const float* points,
    std::size_t count, std::size_t dim, double* out) {
  if (dim > kBlockHoistDim) {
    for (std::size_t i = 0; i < count; ++i) {
      const float* p = points + i * dim;
      for (std::size_t q = 0; q < num_queries; ++q) {
        out[q * count + i] = L1Avx2(queries + q * dim, p, dim);
      }
    }
    return;
  }
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  for (std::size_t i = 0; i < count; ++i) {
    const float* p = points + i * dim;
    __m256d prow[kBlockHoistDim / 4] = {_mm256_setzero_pd(),
                                        _mm256_setzero_pd(),
                                        _mm256_setzero_pd(),
                                        _mm256_setzero_pd()};
    for (std::size_t c = 0; c * 4 + 4 <= dim; ++c) {
      prow[c] = _mm256_cvtps_pd(_mm_loadu_ps(p + c * 4));
    }
    for (std::size_t q = 0; q < num_queries; ++q) {
      const float* a = queries + q * dim;
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      std::size_t j = 0;
      for (; j + 8 <= dim; j += 8) {
        const __m256d d0 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + j)),
                                         prow[j / 4]);
        acc0 = _mm256_add_pd(acc0, _mm256_and_pd(abs_mask, d0));
        const __m256d d1 = _mm256_sub_pd(
            _mm256_cvtps_pd(_mm_loadu_ps(a + j + 4)), prow[j / 4 + 1]);
        acc1 = _mm256_add_pd(acc1, _mm256_and_pd(abs_mask, d1));
      }
      if (j + 4 <= dim) {
        const __m256d d0 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + j)),
                                         prow[j / 4]);
        acc0 = _mm256_add_pd(acc0, _mm256_and_pd(abs_mask, d0));
        j += 4;
      }
      double sum = HorizontalSum(_mm256_add_pd(acc0, acc1));
      for (; j < dim; ++j) {
        sum += std::abs(static_cast<double>(a[j]) - static_cast<double>(p[j]));
      }
      out[q * count + i] = sum;
    }
  }
}

__attribute__((target("avx2,fma"))) void LmaxBlockAvx2(
    const float* queries, std::size_t num_queries, const float* points,
    std::size_t count, std::size_t dim, double* out) {
  if (dim > kBlockHoistDim) {
    for (std::size_t i = 0; i < count; ++i) {
      const float* p = points + i * dim;
      for (std::size_t q = 0; q < num_queries; ++q) {
        out[q * count + i] = LmaxAvx2(queries + q * dim, p, dim);
      }
    }
    return;
  }
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
  for (std::size_t i = 0; i < count; ++i) {
    const float* p = points + i * dim;
    __m256d prow[kBlockHoistDim / 4] = {_mm256_setzero_pd(),
                                        _mm256_setzero_pd(),
                                        _mm256_setzero_pd(),
                                        _mm256_setzero_pd()};
    for (std::size_t c = 0; c * 4 + 4 <= dim; ++c) {
      prow[c] = _mm256_cvtps_pd(_mm_loadu_ps(p + c * 4));
    }
    for (std::size_t q = 0; q < num_queries; ++q) {
      const float* a = queries + q * dim;
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      std::size_t j = 0;
      for (; j + 8 <= dim; j += 8) {
        const __m256d d0 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + j)),
                                         prow[j / 4]);
        acc0 = _mm256_max_pd(acc0, _mm256_and_pd(abs_mask, d0));
        const __m256d d1 = _mm256_sub_pd(
            _mm256_cvtps_pd(_mm_loadu_ps(a + j + 4)), prow[j / 4 + 1]);
        acc1 = _mm256_max_pd(acc1, _mm256_and_pd(abs_mask, d1));
      }
      if (j + 4 <= dim) {
        const __m256d d0 = _mm256_sub_pd(_mm256_cvtps_pd(_mm_loadu_ps(a + j)),
                                         prow[j / 4]);
        acc0 = _mm256_max_pd(acc0, _mm256_and_pd(abs_mask, d0));
        j += 4;
      }
      double best = HorizontalMax(_mm256_max_pd(acc0, acc1));
      for (; j < dim; ++j) {
        best = std::max(best, std::abs(static_cast<double>(a[j]) -
                                       static_cast<double>(p[j])));
      }
      out[q * count + i] = best;
    }
  }
}

#endif  // PARSIM_METRIC_X86

/// One query's codes against a contiguous block of code rows.
using Sq8ManyKernel = void (*)(const std::uint8_t*, const std::uint8_t*,
                               std::size_t, std::size_t, std::uint32_t*);

void Sq8SadManyUnrolled(const std::uint8_t* query, const std::uint8_t* codes,
                        std::size_t count, std::size_t dim,
                        std::uint32_t* out) {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = Sq8SadUnrolled(query, codes + i * dim, dim);
  }
}

void Sq8SsdManyUnrolled(const std::uint8_t* query, const std::uint8_t* codes,
                        std::size_t count, std::size_t dim,
                        std::uint32_t* out) {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = Sq8SsdUnrolled(query, codes + i * dim, dim);
  }
}

void Sq8MadManyUnrolled(const std::uint8_t* query, const std::uint8_t* codes,
                        std::size_t count, std::size_t dim,
                        std::uint32_t* out) {
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = Sq8MadUnrolled(query, codes + i * dim, dim);
  }
}

/// Fused one-to-many reduction + cutoff filter: writes the indices of
/// rows whose reduction is <= cutoff, returns how many survived.
using Sq8ManyUnderKernel = std::size_t (*)(const std::uint8_t*,
                                           const std::uint8_t*, std::size_t,
                                           std::size_t, std::uint32_t,
                                           std::uint32_t*);

std::size_t Sq8SadManyUnderUnrolled(const std::uint8_t* query,
                                    const std::uint8_t* codes,
                                    std::size_t count, std::size_t dim,
                                    std::uint32_t cutoff,
                                    std::uint32_t* out_idx) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (Sq8SadUnrolled(query, codes + i * dim, dim) <= cutoff) {
      out_idx[n++] = static_cast<std::uint32_t>(i);
    }
  }
  return n;
}

std::size_t Sq8SsdManyUnderUnrolled(const std::uint8_t* query,
                                    const std::uint8_t* codes,
                                    std::size_t count, std::size_t dim,
                                    std::uint32_t cutoff,
                                    std::uint32_t* out_idx) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (Sq8SsdUnrolled(query, codes + i * dim, dim) <= cutoff) {
      out_idx[n++] = static_cast<std::uint32_t>(i);
    }
  }
  return n;
}

std::size_t Sq8MadManyUnderUnrolled(const std::uint8_t* query,
                                    const std::uint8_t* codes,
                                    std::size_t count, std::size_t dim,
                                    std::uint32_t cutoff,
                                    std::uint32_t* out_idx) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (Sq8MadUnrolled(query, codes + i * dim, dim) <= cutoff) {
      out_idx[n++] = static_cast<std::uint32_t>(i);
    }
  }
  return n;
}

struct KernelTable {
  PairKernel squared_l2;
  PairKernel l1;
  PairKernel lmax;
  BlockKernel squared_l2_block;
  BlockKernel l1_block;
  BlockKernel lmax_block;
  /// SQ8 reductions dispatch as one-to-many kernels (the pair kernels
  /// are their building blocks, called directly for odd dims).
  Sq8ManyKernel sq8_sad_many;
  Sq8ManyKernel sq8_ssd_many;
  Sq8ManyKernel sq8_mad_many;
  /// Fused reduction + fixed-cutoff filters (the join's sweep shape).
  Sq8ManyUnderKernel sq8_sad_many_under;
  Sq8ManyUnderKernel sq8_ssd_many_under;
  Sq8ManyUnderKernel sq8_mad_many_under;
  bool simd;
};

KernelTable PickKernels() {
#ifdef PARSIM_METRIC_X86
  // The SQ8 kernels only need avx2, but they dispatch together with the
  // float kernels: one cpuid decision, one table.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return {SquaredL2Avx2,        L1Avx2,              LmaxAvx2,
            SquaredL2BlockAvx2,   L1BlockAvx2,         LmaxBlockAvx2,
            Sq8SadManyAvx2,       Sq8SsdManyAvx2,      Sq8MadManyAvx2,
            Sq8SadManyUnderAvx2,  Sq8SsdManyUnderAvx2, Sq8MadManyUnderAvx2,
            /*simd=*/true};
  }
#endif
  return {SquaredL2Unrolled,       L1Unrolled,           LmaxUnrolled,
          SquaredL2BlockUnrolled,  L1BlockUnrolled,      LmaxBlockUnrolled,
          Sq8SadManyUnrolled,      Sq8SsdManyUnrolled,   Sq8MadManyUnrolled,
          Sq8SadManyUnderUnrolled, Sq8SsdManyUnderUnrolled,
          Sq8MadManyUnderUnrolled,
          /*simd=*/false};
}

const KernelTable& Kernels() {
  static const KernelTable table = PickKernels();
  return table;
}

}  // namespace

namespace detail {

bool SimdEnabled() { return Kernels().simd; }

}  // namespace detail

double SquaredL2(PointView a, PointView b) {
  PARSIM_DCHECK(a.size() == b.size());
  return Kernels().squared_l2(a.data(), b.data(), a.size());
}

double L2(PointView a, PointView b) { return std::sqrt(SquaredL2(a, b)); }

double L1(PointView a, PointView b) {
  PARSIM_DCHECK(a.size() == b.size());
  return Kernels().l1(a.data(), b.data(), a.size());
}

double Lmax(PointView a, PointView b) {
  PARSIM_DCHECK(a.size() == b.size());
  return Kernels().lmax(a.data(), b.data(), a.size());
}

double Metric::Distance(PointView a, PointView b) const {
  switch (kind_) {
    case MetricKind::kL1:
      return L1(a, b);
    case MetricKind::kL2:
      return L2(a, b);
    case MetricKind::kLmax:
      return Lmax(a, b);
  }
  PARSIM_UNREACHABLE();
}

double Metric::Comparable(PointView a, PointView b) const {
  if (kind_ == MetricKind::kL2) return SquaredL2(a, b);
  return Distance(a, b);
}

ComparableFn Metric::comparable_fn() const {
  switch (kind_) {
    case MetricKind::kL1:
      return Kernels().l1;
    case MetricKind::kL2:
      return Kernels().squared_l2;
    case MetricKind::kLmax:
      return Kernels().lmax;
  }
  PARSIM_UNREACHABLE();
}

double Metric::ToComparable(double distance) const {
  if (kind_ == MetricKind::kL2) return distance * distance;
  return distance;
}

double Metric::FromComparable(double comparable) const {
  if (kind_ == MetricKind::kL2) return std::sqrt(comparable);
  return comparable;
}

void Metric::ComparableMany(PointView query, const Scalar* points,
                            std::size_t count, std::size_t dim,
                            double* out) const {
  PARSIM_DCHECK(query.size() == dim);
  const float* q = query.data();
  PairKernel kernel;
  switch (kind_) {
    case MetricKind::kL1:
      kernel = Kernels().l1;
      break;
    case MetricKind::kL2:
      kernel = Kernels().squared_l2;
      break;
    case MetricKind::kLmax:
      kernel = Kernels().lmax;
      break;
    default:
      PARSIM_UNREACHABLE();
  }
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = kernel(q, points + i * dim, dim);
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
  BlockKernel kernel;
  switch (kind_) {
    case MetricKind::kL1:
      kernel = Kernels().l1_block;
      break;
    case MetricKind::kL2:
      kernel = Kernels().squared_l2_block;
      break;
    case MetricKind::kLmax:
      kernel = Kernels().lmax_block;
      break;
    default:
      PARSIM_UNREACHABLE();
  }
  kernel(queries, num_queries, points, count, dim, out);
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

namespace {

Sq8ManyKernel Sq8ManyKernelFor(MetricKind kind) {
  switch (kind) {
    case MetricKind::kL1:
      return Kernels().sq8_sad_many;
    case MetricKind::kL2:
      return Kernels().sq8_ssd_many;
    case MetricKind::kLmax:
      return Kernels().sq8_mad_many;
  }
  PARSIM_UNREACHABLE();
}

Sq8ManyUnderKernel Sq8ManyUnderKernelFor(MetricKind kind) {
  switch (kind) {
    case MetricKind::kL1:
      return Kernels().sq8_sad_many_under;
    case MetricKind::kL2:
      return Kernels().sq8_ssd_many_under;
    case MetricKind::kLmax:
      return Kernels().sq8_mad_many_under;
  }
  PARSIM_UNREACHABLE();
}

}  // namespace

void Metric::Sq8Many(const std::uint8_t* query, const std::uint8_t* codes,
                     std::size_t count, std::size_t dim,
                     std::uint32_t* out) const {
  Sq8ManyKernelFor(kind_)(query, codes, count, dim, out);
}

std::size_t Metric::Sq8ManyUnder(const std::uint8_t* query,
                                 const std::uint8_t* codes, std::size_t count,
                                 std::size_t dim, std::uint32_t cutoff,
                                 std::uint32_t* out_idx) const {
  return Sq8ManyUnderKernelFor(kind_)(query, codes, count, dim, cutoff,
                                      out_idx);
}

void Metric::Sq8Block(const std::uint8_t* queries, std::size_t num_queries,
                      const std::uint8_t* codes, std::size_t count,
                      std::size_t dim, std::uint32_t* out) const {
  // Query-major over the one-to-many kernel: each query's codes are
  // hoisted into registers once, and the block's code rows (dim bytes,
  // 4x smaller than the float SoA rows) stay hot in L1 across queries —
  // a whole 64-query group's rows fit the cache the float path
  // overflows.
  const Sq8ManyKernel kernel = Sq8ManyKernelFor(kind_);
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
  const Sq8ManyKernel kernel = Sq8ManyKernelFor(kind_);
  for (std::size_t i = 0; i + 1 < count; ++i) {
    kernel(queries + i * dim, codes + (i + 1) * dim, count - i - 1, dim,
           out + i * count + i + 1);
  }
}

}  // namespace parsim
