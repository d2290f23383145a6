#include "src/index/leaf_sweep.h"

#include <cmath>
#include <cstdint>
#include <vector>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PARSIM_LEAF_SWEEP_X86 1
#include <immintrin.h>
#endif

namespace parsim {

namespace detail {

LeafSweepScratch& SweepScratch() {
  thread_local LeafSweepScratch scratch;
  return scratch;
}

std::uint32_t IntCutoff(double cutoff) {
  // Truncation is floor for non-negative values, and for integer r,
  // double(r) > cutoff  <=>  r > floor(cutoff), so the double compare in
  // PruneCutoff's contract becomes an exact integer compare. Reductions
  // are uint32, so any cutoff at or above 2^32 - 1 prunes nothing.
  if (!(cutoff < 4294967295.0)) return 0xffffffffu;
  return static_cast<std::uint32_t>(cutoff);
}

namespace {

std::size_t CollectSurvivorsScalar(const std::uint32_t* reductions,
                                   std::size_t count, std::uint32_t cutoff,
                                   std::uint32_t* out) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < count; ++i) {
    if (reductions[i] <= cutoff) out[n++] = static_cast<std::uint32_t>(i);
  }
  return n;
}

#ifdef PARSIM_LEAF_SWEEP_X86

__attribute__((target("avx2"))) std::size_t CollectSurvivorsAvx2(
    const std::uint32_t* reductions, std::size_t count, std::uint32_t cutoff,
    std::uint32_t* out) {
  // Unsigned r > cutoff via signed compare after flipping the sign bit
  // of both sides. A set mask bit means "pruned"; clear bits are
  // appended as survivor indices (in ascending order, same as the
  // scalar loop).
  const __m256i flip = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  const __m256i vcut = _mm256_xor_si256(
      _mm256_set1_epi32(static_cast<int>(cutoff)), flip);
  std::size_t n = 0;
  std::size_t i = 0;
  for (; i + 8 <= count; i += 8) {
    const __m256i r = _mm256_xor_si256(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(reductions + i)),
        flip);
    unsigned survivors = static_cast<unsigned>(
        ~_mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpgt_epi32(r, vcut))) &
        0xff);
    while (survivors != 0) {
      out[n++] = static_cast<std::uint32_t>(
          i + static_cast<std::size_t>(__builtin_ctz(survivors)));
      survivors &= survivors - 1;
    }
  }
  for (; i < count; ++i) {
    if (reductions[i] <= cutoff) out[n++] = static_cast<std::uint32_t>(i);
  }
  return n;
}

#endif  // PARSIM_LEAF_SWEEP_X86

}  // namespace

std::size_t CollectSurvivors(const std::uint32_t* reductions,
                             std::size_t count, std::uint32_t cutoff,
                             std::uint32_t* out) {
#ifdef PARSIM_LEAF_SWEEP_X86
  static const bool kSimd = SimdEnabled();
  if (kSimd) return CollectSurvivorsAvx2(reductions, count, cutoff, out);
#endif
  return CollectSurvivorsScalar(reductions, count, cutoff, out);
}

std::size_t CountSurvivors(const std::uint32_t* reductions, std::size_t count,
                           std::uint32_t cutoff) {
  // Branch-free count the compiler auto-vectorizes; only the approximate
  // tier's exact-attribution pass calls this, so it needs no hand-tuned
  // kernel.
  std::size_t n = 0;
  for (std::size_t i = 0; i < count; ++i) {
    n += reductions[i] <= cutoff ? 1 : 0;
  }
  return n;
}

namespace {

// Largest code c with Recon(c) <= bound, or -1 if even code 0 exceeds it
// (clamped to 255 when every code qualifies). The division is only a
// guess — scale is tiny and |lo| can be large, so the quotient may be
// off by an ulp-induced step in either direction; the walk afterwards
// settles on the exact answer of the same Recon expression the encoder
// measured errors against, which is what keeps the interval
// conservative without a second guard term.
int CodeFloor(const Sq8Mirror& sq8, std::size_t j, double bound) {
  const double lo = sq8.lo[j];
  const double scale = sq8.scale;
  double guess = std::floor((bound - lo) / scale);
  if (guess < -2.0) guess = -2.0;
  if (guess > 257.0) guess = 257.0;
  int c = static_cast<int>(guess);
  while (c < 255 && sq8.Recon(static_cast<std::uint8_t>(c + 1), j) <= bound) {
    ++c;
  }
  while (c >= 0 && sq8.Recon(static_cast<std::uint8_t>(c), j) > bound) {
    --c;
  }
  return c < 255 ? c : 255;
}

// Smallest code c with Recon(c) >= bound, or 256 if even code 255 falls
// short (clamped to 0 when every code qualifies).
int CodeCeil(const Sq8Mirror& sq8, std::size_t j, double bound) {
  const double lo = sq8.lo[j];
  const double scale = sq8.scale;
  double guess = std::ceil((bound - lo) / scale);
  if (guess < -2.0) guess = -2.0;
  if (guess > 257.0) guess = 257.0;
  int c = static_cast<int>(guess);
  while (c > 0 && sq8.Recon(static_cast<std::uint8_t>(c - 1), j) >= bound) {
    --c;
  }
  while (c <= 255 && sq8.Recon(static_cast<std::uint8_t>(c), j) < bound) {
    ++c;
  }
  return c > 0 ? c : 0;
}

}  // namespace

}  // namespace detail

Counters SweepLeafRange(const LeafBlock& block, const Rect& query,
                        std::vector<PointId>* out) {
  Counters sweep;
  // Containment sweeps never charged simulated distance computations
  // before quantization and still don't: distance_computations stays 0
  // on both paths; only the byte/prune counters differ.
  if (!block.has_sq8 || block.sq8.scale <= 0.0) {
    // scale == 0 means a constant/empty block whose codes carry no
    // information — the code intervals would be all-pass anyway.
    for (std::size_t i = 0; i < block.count; ++i) {
      if (query.Contains(block.row(i))) out->push_back(block.ids[i]);
    }
    sweep.leaf_bytes_scanned = block.count * block.dim * sizeof(Scalar);
    return sweep;
  }
  const Sq8Mirror& sq8 = block.sq8;
  const std::size_t dim = block.dim;
  // Per-dimension code interval [clo_j, chi_j]: any point v with
  // v_j in [query.lo(j), query.hi(j)] has a code c_j whose Recon lies
  // within err[j] of v_j, so c_j's Recon lies in the widened window
  // [lo - err - g, hi + err + g]; g absorbs the float->double read of
  // the rect bounds. A code outside the interval therefore certifies
  // the point is outside the rect in that dimension.
  detail::LeafSweepScratch& scratch = detail::SweepScratch();
  scratch.reductions.resize(2 * dim);  // reuse as [clo..., chi...]
  std::uint32_t* clo = scratch.reductions.data();
  std::uint32_t* chi = scratch.reductions.data() + dim;
  bool empty = false;
  for (std::size_t j = 0; j < dim; ++j) {
    const double qlo = static_cast<double>(query.lo(j));
    const double qhi = static_cast<double>(query.hi(j));
    const double g_lo = 1e-9 * (std::abs(qlo) + 1.0);
    const double g_hi = 1e-9 * (std::abs(qhi) + 1.0);
    const int lo_c = detail::CodeCeil(sq8, j, qlo - sq8.err[j] - g_lo);
    const int hi_c = detail::CodeFloor(sq8, j, qhi + sq8.err[j] + g_hi);
    if (lo_c > hi_c) {
      empty = true;
      break;
    }
    clo[j] = static_cast<std::uint32_t>(lo_c);
    chi[j] = static_cast<std::uint32_t>(hi_c);
  }
  if (!empty) {
    for (std::size_t i = 0; i < block.count; ++i) {
      const std::uint8_t* codes = sq8.row(i);
      bool maybe = true;
      for (std::size_t j = 0; j < dim; ++j) {
        const std::uint32_t c = codes[j];
        if (c < clo[j] || c > chi[j]) {
          maybe = false;
          break;
        }
      }
      if (!maybe) {
        ++sweep.quantized_pruned;
        continue;
      }
      ++sweep.reranked;
      if (query.Contains(block.row(i))) out->push_back(block.ids[i]);
    }
  } else {
    sweep.quantized_pruned = block.count;
  }
  // The code-interval prefilter is this sweep's SQ8 stage.
  sweep.sq8_pruned = sweep.quantized_pruned;
  sweep.leaf_bytes_scanned =
      block.count * dim + sweep.reranked * dim * sizeof(Scalar);
  return sweep;
}

}  // namespace parsim
