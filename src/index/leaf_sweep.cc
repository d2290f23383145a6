#include "src/index/leaf_sweep.h"

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
  // A negative cutoff means "prune everything", which no uint32 cutoff
  // can say; NaN passes here and saturates below.
  PARSIM_DCHECK(!(cutoff < 0.0));
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

}  // namespace detail

}  // namespace parsim
