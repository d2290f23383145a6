// The one place every distance-threshold leaf sweep goes through.
//
// There are two sweeps: SweepLeafBlockMany for distance-threshold
// queries (k-NN and ball; the single-query SweepLeafDistances is its
// one-member case, so HsKnn, RkvKnn, BallQuery and the round scheduler
// share one implementation), and SweepLeafBlockSelf for the exact
// self-join (a quantized join sweeps its own group codebooks,
// src/parallel/join.cc). Containment queries (range, partial match) run
// the float Contains pass in TreeBase::RangeQuery on every block: an SQ8
// code-interval prefilter there measured 1.02-1.25x the float pass.
//
// SweepLeafBlockMany holds the quantized/exact decision once: on a plain
// block it is the familiar ComparableBlock pass; on a quantized block
// (LeafBlock::has_sq8) it first runs one full-width integer SQ8
// reduction over the uint8 mirror, prunes every candidate whose
// comparable-space lower bound (Sq8Bound::LowerBound, applied through
// its reduction-space inversion PruneCutoff so the hot loop is one
// compare per candidate) exceeds the caller's current threshold, and
// re-ranks only survivors through the exact float kernels. Because
// the bound never exceeds the exact comparable distance, a pruned
// candidate is exactly one the caller's threshold test would have
// rejected — emitted keys, result sets, and page accesses are
// bit-identical to the exact sweep.
//
// Each sweep returns (or fills) the Counters it moved (src/io/counters.h);
// callers forward them to TreeBase::ChargeLeafSweep so exact re-ranks
// meter simulated CPU (distance_computations) and the
// prune/re-rank/bytes counters reach the per-query stats. The integer
// bound computations charge no simulated CPU: they are the cost the
// quantized path removes, and the counters make the removal auditable
// instead of invisible.

#ifndef PARSIM_SRC_INDEX_LEAF_SWEEP_H_
#define PARSIM_SRC_INDEX_LEAF_SWEEP_H_

#include <cstdint>
#include <vector>

#include "src/geometry/metric.h"
#include "src/geometry/sq8.h"
#include "src/index/node.h"
#include "src/io/counters.h"
#include "src/util/check.h"
#include "src/util/phase_timer.h"

namespace parsim {

namespace detail {

/// Grow-only resize for scratch vectors that are always written before
/// they are read: plain resize() value-initializes every element past
/// the old size, and with per-call sizes that fluctuate block to block
/// that memset re-runs on almost every sweep. Keeping the size at its
/// high-water mark makes the steady state allocation- and memset-free.
template <typename T>
inline void GrowTo(std::vector<T>& v, std::size_t n) {
  if (v.size() < n) v.resize(n);
}

/// Per-thread buffers of the sweep templates below, so steady-state
/// sweeps allocate nothing (the pattern ScanLeafBlock used before).
struct LeafSweepScratch {
  std::vector<double> dists;
  std::vector<std::uint32_t> reductions;
  std::vector<std::uint8_t> qcodes;    // members x dim
  std::vector<Sq8Bound> bounds;        // one per member
  std::vector<std::uint32_t> survivors;  // bound survivors of one sweep
};

LeafSweepScratch& SweepScratch();

/// Reduction-space prune cutoff as an exact integer: for any uint32
/// reduction r, double(r) > cutoff <=> r > IntCutoff(cutoff) (truncation
/// is floor for the non-negative values PruneCutoff returns; cutoffs at
/// or past 2^32 - 1, including +infinity, and NaN saturate to UINT32_MAX
/// which prunes nothing). A negative cutoff — PruneCutoff's "the base
/// term alone prunes everything" — has no integer form: callers guard
/// it, and a debug build fails a PARSIM_DCHECK if one slips through.
std::uint32_t IntCutoff(double cutoff);

/// Appends to `out` (capacity >= count) every index i with
/// reductions[i] <= cutoff, ascending, and returns how many. The prune
/// hot loop: AVX2 compares 8 reductions per instruction and compresses
/// the clear mask bits where available; the survivor list is identical
/// to the scalar scan's.
std::size_t CollectSurvivors(const std::uint32_t* reductions,
                             std::size_t count, std::uint32_t cutoff,
                             std::uint32_t* out);

/// How many of `count` reductions are <= cutoff (the survivor count of
/// CollectSurvivors without materializing the list). The approximate
/// tier's exact-attribution pass: it re-scores already-computed
/// reductions against the lossless cutoff, so it runs only when
/// approx_factor > 1 and never touches the exact path.
std::size_t CountSurvivors(const std::uint32_t* reductions,
                           std::size_t count, std::uint32_t cutoff);

}  // namespace detail

/// Sweeps one leaf block for `members` distance-threshold queries (k-NN,
/// ball) at once: `queries` is row-major, members x block.dim scalars,
/// scored by one many-to-many kernel call. `threshold(m)` is member m's
/// CURRENT comparable-space cutoff — a candidate strictly above it can no
/// longer matter (its k-th best bound, or the ball radius); it is re-read
/// after every emit of m — the only point it can tighten — so each
/// candidate is tested against the threshold in force when the sweep
/// reaches it, exactly as a per-candidate re-read would.
/// `emit(m, i, comparable)` receives every surviving candidate of m with
/// its exact comparable distance, in block order (members in ascending
/// order) — bit-identical, on both paths, to what the exact kernels
/// compute. `stats` must have `members` entries; entry m accumulates
/// member m's share.
///
/// `approx_factor` > 1 enables the approximate tier's bound relaxation
/// (quantized blocks only; the exact path has no cutoff to relax): the
/// SQ8 prune cutoff derives from threshold(m)/approx_factor instead of
/// threshold(m), so candidates whose lower bound clears the exact
/// threshold but not the relaxed one are dropped without a re-rank —
/// deliberately lossy, measured by the recall harness
/// (src/eval/recall.h). approx_pruned_exactly counts, among the pruned,
/// those the lossless cutoff at the same running threshold would also
/// have killed. At 1.0 (the default) every approx branch is dead.
template <typename ThresholdFn, typename EmitFn>
void SweepLeafBlockMany(const LeafBlock& block, const Scalar* queries,
                        std::size_t members, const Metric& metric,
                        ThresholdFn&& threshold, EmitFn&& emit,
                        Counters* stats, double approx_factor = 1.0) {
  detail::LeafSweepScratch& scratch = detail::SweepScratch();
  const std::size_t dim = block.dim;
  if (!block.has_sq8) {
    ScopedPhase phase(Phase::kSweepRerank);
    detail::GrowTo(scratch.dists, members * block.count);
    metric.ComparableBlock(queries, members, block.coords.data(), block.count,
                           dim, scratch.dists.data());
    for (std::size_t m = 0; m < members; ++m) {
      const double* row = scratch.dists.data() + m * block.count;
      for (std::size_t i = 0; i < block.count; ++i) {
        emit(m, i, row[i]);
      }
      stats[m].distance_computations += block.count;
      stats[m].leaf_bytes_scanned += block.count * dim * sizeof(Scalar);
    }
    return;
  }
  {
    ScopedPhase phase(Phase::kSweepPrep);
    detail::GrowTo(scratch.qcodes, members * dim);
    detail::GrowTo(scratch.bounds, members);
    PrepareSq8QueryMany(block.sq8, queries, members, metric.kind(),
                        scratch.qcodes.data(), scratch.bounds.data());
  }
  {
    ScopedPhase phase(Phase::kSweepFull);
    detail::GrowTo(scratch.reductions, members * block.count);
    metric.Sq8Block(scratch.qcodes.data(), members, block.sq8.codes.data(),
                    block.count, dim, scratch.reductions.data());
  }
  // Dividing by 1.0 is exact, so the exact sweep needs no branch of its
  // own: threshold / approx_factor is the threshold itself there.
  const bool approx = approx_factor > 1.0;
  const ComparableFn exact = metric.comparable_fn();
  detail::GrowTo(scratch.survivors, block.count);
  for (std::size_t m = 0; m < members; ++m) {
    const Sq8Bound& bound = scratch.bounds[m];
    const std::uint32_t* row = scratch.reductions.data() + m * block.count;
    const Scalar* qrow = queries + m * dim;
    double last_threshold = threshold(m);
    double dcut = bound.PruneCutoff(last_threshold / approx_factor);
    if (dcut < 0.0) {
      // The entry guard: the base term alone exceeds the (relaxed)
      // threshold, and IntCutoff must never see the negative cutoff that
      // says so. The tree searches read a leaf only while its MINDIST is
      // within that threshold, and `base` is a guard-deflated lower bound
      // on the MINDIST, so they do not reach this branch.
      stats[m].quantized_pruned += block.count;
      stats[m].base_pruned += block.count;
      if (approx && bound.PruneCutoff(last_threshold) < 0.0) {
        stats[m].approx_pruned_exactly += block.count;
      }
      continue;
    }
    Counters sweep;
    // One SIMD pass compresses the survivor indices under the cutoff in
    // force at block entry; the emit loop then re-checks each survivor
    // against the current cutoff, which only tightens when an emit
    // lands. Per candidate this decides exactly what the naive
    // interleaved loop decides: a candidate pruned at entry is pruned
    // under any later (tighter) cutoff too, and one that entry-survives
    // but reaches the emit loop after a tightening is caught by the
    // re-check — at one compare per candidate plus one per survivor.
    std::uint32_t cutoff = detail::IntCutoff(dcut);
    // Exact-attribution twin of `cutoff` (approx only): the integer
    // cutoff the lossless contract would use at the same threshold.
    // PruneCutoff is monotone in its threshold and the relaxed cutoff
    // was non-negative, so the exact one is too, ecut >= cutoff, and
    // the exactly-proven prunes are a subset of the relaxed prunes.
    std::uint32_t ecut = 0;
    if (approx) {
      ecut = detail::IntCutoff(bound.PruneCutoff(last_threshold));
    }
    std::size_t nsurv;
    {
      ScopedPhase phase(Phase::kSweepFull);
      nsurv = detail::CollectSurvivors(row, block.count, cutoff,
                                       scratch.survivors.data());
      sweep.sq8_pruned += block.count - nsurv;
      if (approx) {
        sweep.approx_pruned_exactly +=
            block.count - detail::CountSurvivors(row, block.count, ecut);
      }
    }
    ScopedPhase phase(Phase::kSweepRerank);
    // The threshold can only tighten when an emit lands, so it is
    // re-read once per emit instead of once per survivor — every
    // survivor still sees the same (cutoff, dcut) state as the
    // read-every-iteration loop, and the counters match it exactly.
    for (std::size_t s = 0; s < nsurv; ++s) {
      const std::size_t i = scratch.survivors[s];
      if (row[i] > cutoff) {
        ++sweep.sq8_pruned;
        if (approx && row[i] > ecut) ++sweep.approx_pruned_exactly;
        continue;
      }
      ++sweep.reranked;
      emit(m, i, exact(qrow, block.row(i).data(), dim));
      const double t = threshold(m);
      if (t != last_threshold) {
        last_threshold = t;
        dcut = bound.PruneCutoff(t / approx_factor);
        if (dcut < 0.0) {
          // Only a relaxed threshold can fall below the base term here:
          // an exact one is at least the emitted distance.
          sweep.base_pruned += nsurv - s - 1;
          if (approx) {
            // Exact attribution of the rest-of-block drop: the exact
            // base may not have crossed yet, in which case each
            // remaining survivor's already-computed reduction decides.
            const double ed = bound.PruneCutoff(t);
            if (ed < 0.0) {
              sweep.approx_pruned_exactly += nsurv - s - 1;
            } else {
              const std::uint32_t ec = detail::IntCutoff(ed);
              for (std::size_t r = s + 1; r < nsurv; ++r) {
                if (row[scratch.survivors[r]] > ec) {
                  ++sweep.approx_pruned_exactly;
                }
              }
            }
          }
          break;
        }
        cutoff = detail::IntCutoff(dcut);
        if (approx) ecut = detail::IntCutoff(bound.PruneCutoff(t));
      }
    }
    sweep.quantized_pruned = sweep.base_pruned + sweep.sq8_pruned;
    sweep.distance_computations = sweep.reranked;
    sweep.leaf_bytes_scanned =
        block.count * dim + sweep.reranked * dim * sizeof(Scalar);
    stats[m] += sweep;
  }
}

/// The one-query sweep: SweepLeafBlockMany with one member, so
/// `threshold()` and `emit(i, comparable)` mean exactly what
/// threshold(0) and emit(0, i, comparable) mean there. At one member the
/// many-to-many kernels and the query preparation reduce to their
/// one-query forms, bit for bit.
template <typename ThresholdFn, typename EmitFn>
Counters SweepLeafDistances(const LeafBlock& block, PointView query,
                            const Metric& metric, ThresholdFn&& threshold,
                            EmitFn&& emit, double approx_factor = 1.0) {
  PARSIM_DCHECK(query.size() == block.dim);
  Counters sweep;
  SweepLeafBlockMany(
      block, query.data(), 1, metric,
      [&](std::size_t) { return threshold(); },
      [&](std::size_t, std::size_t i, double comparable) {
        emit(i, comparable);
      },
      &sweep, approx_factor);
  return sweep;
}

/// Symmetric self-sweep of one exact leaf block for the all-pairs
/// similarity join: every unordered pair (i, j), i < j, of the block's
/// own points, computed ONCE via the triangle kernel
/// (Metric::ComparableBlockSelf) — the diagonal's self-pairs are skipped
/// entirely. `emit(i, j, comparable)` receives every pair in
/// lexicographic block order with its exact comparable distance; the
/// caller applies its fixed threshold. A quantized join sends every pair
/// through its group codebooks instead (src/parallel/join.cc), so an SQ8
/// block here is a caller bug.
template <typename EmitFn>
Counters SweepLeafBlockSelf(const LeafBlock& block, const Metric& metric,
                            EmitFn&& emit) {
  PARSIM_CHECK(!block.has_sq8);
  Counters sweep;
  const std::size_t n = block.count;
  if (n < 2) return sweep;
  const std::size_t dim = block.dim;
  detail::LeafSweepScratch& scratch = detail::SweepScratch();
  ScopedPhase phase(Phase::kSweepRerank);
  detail::GrowTo(scratch.dists, n * n);
  metric.ComparableBlockSelf(block.coords.data(), n, dim,
                             scratch.dists.data());
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const double* row = scratch.dists.data() + i * n;
    for (std::size_t j = i + 1; j < n; ++j) {
      emit(i, j, row[j]);
    }
  }
  sweep.distance_computations = static_cast<std::uint64_t>(n) * (n - 1) / 2;
  sweep.leaf_bytes_scanned = n * dim * sizeof(Scalar);
  return sweep;
}

}  // namespace parsim

#endif  // PARSIM_SRC_INDEX_LEAF_SWEEP_H_
