// The one place every leaf-page sweep goes through.
//
// There are three sweeps: SweepLeafBlockMany for distance-threshold
// queries (k-NN and ball; the single-query SweepLeafDistances is its
// one-member case, so HsKnn, RkvKnn, BallQuery and the round scheduler
// share one implementation), SweepLeafRange for containment queries,
// and SweepLeafBlockSelf for the self-join. Each holds the
// quantized/exact decision once: on a plain block the sweep is the
// familiar ComparableBlock / Contains pass; on a quantized block
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
// meter simulated CPU (distance_computations; containment sweeps charge
// none) and the prune/re-rank/bytes counters reach the per-query stats.
// The integer bound computations charge no simulated CPU: they are the
// cost the quantized path removes, and the counters make the removal
// auditable instead of invisible.

#ifndef PARSIM_SRC_INDEX_LEAF_SWEEP_H_
#define PARSIM_SRC_INDEX_LEAF_SWEEP_H_

#include <cstdint>
#include <cstring>
#include <vector>

#include "src/geometry/metric.h"
#include "src/geometry/rect.h"
#include "src/geometry/sq8.h"
#include "src/index/leaf_block.h"
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
  std::vector<std::uint32_t> active;   // members surviving the base prune
};

LeafSweepScratch& SweepScratch();

/// Reduction-space prune cutoff as an exact integer: for any uint32
/// reduction r, double(r) > cutoff <=> r > IntCutoff(cutoff) (truncation
/// is floor for the non-negative values PruneCutoff returns; cutoffs at
/// or past 2^32 - 1, including +infinity, saturate to UINT32_MAX which
/// prunes nothing).
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

/// Sweeps one leaf block for a containment query (range / partial
/// match), appending matching ids to `out`. On a quantized block a
/// conservative per-dimension code-interval prefilter runs over the
/// uint8 mirror first; survivors go through the exact float Contains, so
/// the id set matches the exact sweep exactly.
Counters SweepLeafRange(const LeafBlock& block, const Rect& query,
                        std::vector<PointId>* out);

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
  const bool approx = approx_factor > 1.0;
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
  // Member-level base prune: a member whose candidate-independent `base`
  // term already exceeds its threshold (PruneCutoff's negative sentinel)
  // prunes the whole block before the integer kernel runs. Survivors are
  // compacted in place (ascending, so each code row moves down or stays
  // put) and one many-to-many kernel call covers just them — on hot-spot
  // batches most member/block pairs end here, at the cost of one query
  // preparation and one compare.
  scratch.active.clear();
  for (std::size_t m = 0; m < members; ++m) {
    const double t = threshold(m);
    if (scratch.bounds[m].PruneCutoff(approx ? t / approx_factor : t) < 0.0) {
      stats[m].quantized_pruned += block.count;
      stats[m].base_pruned += block.count;
      if (approx && scratch.bounds[m].PruneCutoff(t) < 0.0) {
        stats[m].approx_pruned_exactly += block.count;
      }
    } else {
      scratch.active.push_back(static_cast<std::uint32_t>(m));
    }
  }
  const std::size_t nactive = scratch.active.size();
  if (nactive == 0) {
    return;
  }
  for (std::size_t a = 0; a < nactive; ++a) {
    const std::size_t m = scratch.active[a];
    if (m != a) {
      std::memcpy(scratch.qcodes.data() + a * dim,
                  scratch.qcodes.data() + m * dim, dim);
    }
  }
  {
    ScopedPhase phase(Phase::kSweepFull);
    detail::GrowTo(scratch.reductions, nactive * block.count);
    metric.Sq8Block(scratch.qcodes.data(), nactive, block.sq8.codes.data(),
                    block.count, dim, scratch.reductions.data());
  }
  const ComparableFn exact = metric.comparable_fn();
  detail::GrowTo(scratch.survivors, block.count);
  for (std::size_t a = 0; a < nactive; ++a) {
    const std::size_t m = scratch.active[a];
    const std::uint32_t* row = scratch.reductions.data() + a * block.count;
    const Scalar* qrow = queries + m * dim;
    Counters sweep;
    // One SIMD pass compresses the survivor indices under the cutoff in
    // force at block entry; the emit loop then re-checks each survivor
    // against the current cutoff, which only tightens when an emit
    // lands. Per candidate this decides exactly what the naive
    // interleaved loop decides: a candidate pruned at entry is pruned
    // under any later (tighter) cutoff too, and one that entry-survives
    // but reaches the emit loop after a tightening is caught by the
    // re-check — at one compare per candidate plus one per survivor.
    double last_threshold = threshold(m);
    double dcut = scratch.bounds[m].PruneCutoff(
        approx ? last_threshold / approx_factor : last_threshold);
    if (dcut < 0.0) {
      sweep.base_pruned += block.count;
      if (approx && scratch.bounds[m].PruneCutoff(last_threshold) < 0.0) {
        sweep.approx_pruned_exactly += block.count;
      }
    } else {
      std::uint32_t cutoff = detail::IntCutoff(dcut);
      // Exact-attribution twin of `cutoff` (approx only): the integer
      // cutoff the lossless contract would use at the same threshold.
      // PruneCutoff is monotone in its threshold and the relaxed cutoff
      // was non-negative, so the exact one is too, ecut >= cutoff, and
      // the exactly-proven prunes are a subset of the relaxed prunes.
      std::uint32_t ecut = 0;
      if (approx) {
        ecut = detail::IntCutoff(scratch.bounds[m].PruneCutoff(last_threshold));
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
          dcut = scratch.bounds[m].PruneCutoff(approx ? t / approx_factor : t);
          if (dcut < 0.0) {
            sweep.base_pruned += nsurv - s - 1;
            if (approx) {
              // Exact attribution of the rest-of-block drop: the exact
              // base may not have crossed yet, in which case each
              // remaining survivor's already-computed reduction decides.
              const double ed = scratch.bounds[m].PruneCutoff(t);
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
          if (approx) {
            ecut = detail::IntCutoff(scratch.bounds[m].PruneCutoff(t));
          }
        }
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

/// Symmetric self-sweep of one leaf block for the all-pairs similarity
/// join: every unordered pair (i, j), i < j, of the block's own points,
/// computed ONCE via the triangle kernels (Metric::ComparableBlockSelf /
/// Sq8BlockSelf) — the diagonal's self-pairs are skipped entirely.
/// `threshold` is the join's FIXED comparable-space cutoff
/// (ToComparable(epsilon)); unlike the k-NN sweeps it never tightens, so
/// no emit-loop re-read is needed. `emit(i, j, comparable)` receives
/// pairs in lexicographic block order with the exact float comparable
/// distance: on the exact path every pair, on the quantized path every
/// bound survivor (the caller applies the final comparable <= threshold
/// test either way). Pruning uses the same Sq8Bound contract as the
/// query sweeps — each block row is prepared as a query against its own
/// block's mirror — so a pruned pair provably exceeds the threshold and
/// the emitted pair set matches the exact path's.
template <typename EmitFn>
Counters SweepLeafBlockSelf(const LeafBlock& block, const Metric& metric,
                            double threshold, EmitFn&& emit) {
  Counters sweep;
  const std::size_t n = block.count;
  if (n < 2) return sweep;
  const std::size_t dim = block.dim;
  detail::LeafSweepScratch& scratch = detail::SweepScratch();
  const std::uint64_t total_pairs =
      static_cast<std::uint64_t>(n) * (n - 1) / 2;
  if (!block.has_sq8) {
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
    sweep.distance_computations = total_pairs;
    sweep.leaf_bytes_scanned = n * dim * sizeof(Scalar);
    return sweep;
  }
  {
    // Every row doubles as a query against its own block's mirror: the
    // prepared codes/bounds are exactly what a ball query from that
    // point would use, so the per-pair lower bounds inherit the query
    // sweeps' lossless-pruning proof unchanged.
    ScopedPhase phase(Phase::kSweepPrep);
    detail::GrowTo(scratch.qcodes, n * dim);
    detail::GrowTo(scratch.bounds, n);
    PrepareSq8QueryMany(block.sq8, block.coords.data(), n, metric.kind(),
                        scratch.qcodes.data(), scratch.bounds.data());
  }
  {
    // Reductions for the whole strict upper triangle in one symmetric
    // kernel call. Block rows sit inside their own lattice range, so the
    // per-row base term is 0 and the base prune below fires only on
    // degenerate lattices — computing the triangle before the base
    // checks wastes nothing in practice.
    ScopedPhase phase(Phase::kSweepFull);
    detail::GrowTo(scratch.reductions, n * n);
    metric.Sq8BlockSelf(scratch.qcodes.data(), block.sq8.codes.data(), n, dim,
                        scratch.reductions.data());
  }
  const ComparableFn exact = metric.comparable_fn();
  detail::GrowTo(scratch.survivors, n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const std::size_t tail = n - i - 1;
    const double dcut = scratch.bounds[i].PruneCutoff(threshold);
    if (dcut < 0.0) {
      sweep.base_pruned += tail;
      continue;
    }
    const std::uint32_t* row = scratch.reductions.data() + i * n + i + 1;
    std::size_t nsurv;
    {
      ScopedPhase phase(Phase::kSweepFull);
      nsurv = detail::CollectSurvivors(row, tail, detail::IntCutoff(dcut),
                                       scratch.survivors.data());
    }
    sweep.sq8_pruned += tail - nsurv;
    // The fixed threshold never tightens, so survivors go straight to
    // the exact re-rank — no cutoff re-check loop.
    ScopedPhase phase(Phase::kSweepRerank);
    const Scalar* qrow = block.row(i).data();
    for (std::size_t s = 0; s < nsurv; ++s) {
      const std::size_t j = i + 1 + scratch.survivors[s];
      ++sweep.reranked;
      emit(i, j, exact(qrow, block.row(j).data(), dim));
    }
  }
  sweep.quantized_pruned = sweep.base_pruned + sweep.sq8_pruned;
  sweep.distance_computations = sweep.reranked;
  sweep.leaf_bytes_scanned =
      total_pairs * dim + sweep.reranked * dim * sizeof(Scalar);
  return sweep;
}

}  // namespace parsim

#endif  // PARSIM_SRC_INDEX_LEAF_SWEEP_H_
