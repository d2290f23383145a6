// The one place every leaf-page sweep goes through.
//
// Before this helper, the quantized/exact decision would have been
// duplicated across five call-sites (HsKnn, RkvKnn, BallQuery,
// RangeQuery/partial-match, and the coalesced batch expander — the R*
// reinsert's center-distance sort operates on a scratch entry buffer,
// not a LeafBlock, so it is not a leaf sweep in this sense). SweepLeaf*
// centralizes it: on a plain block the sweep is the familiar
// ComparableMany / ComparableBlock / Contains pass; on a quantized block
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
// Each sweep returns (or fills) LeafSweepStats; callers forward them to
// TreeBase::ChargeLeafSweep so exact re-ranks meter simulated CPU
// (distance_computations) and the prune/re-rank/bytes counters reach the
// per-query stats. The integer bound computations charge no simulated
// CPU: they are the cost the quantized path removes, and the counters
// make the removal auditable instead of invisible.

#ifndef PARSIM_SRC_INDEX_LEAF_SWEEP_H_
#define PARSIM_SRC_INDEX_LEAF_SWEEP_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "src/geometry/metric.h"
#include "src/geometry/rect.h"
#include "src/geometry/sq8.h"
#include "src/index/leaf_block.h"
#include "src/util/phase_timer.h"

namespace parsim {

/// What one leaf sweep did, for cost charging and stats plumbing.
struct LeafSweepStats {
  /// Exact float kernel evaluations: all candidates on the exact path,
  /// only re-ranked survivors on the quantized path (containment sweeps
  /// charge none, matching RangeQuery's pre-quantization accounting).
  std::uint64_t exact_distances = 0;
  /// Candidates eliminated by the SQ8 lower bound before exact work
  /// (always base_pruned + sq8_pruned).
  std::uint64_t quantized_pruned = 0;
  /// Stage split of quantized_pruned. base_pruned: killed by the
  /// candidate-independent base term alone (whole-block prune at entry,
  /// or rest-of-block when the threshold tightens mid-sweep past the
  /// base) — no per-candidate kernel work. sq8_pruned: killed by the
  /// integer SQ8 reduction (or the range sweep's code-interval
  /// prefilter).
  std::uint64_t base_pruned = 0;
  std::uint64_t sq8_pruned = 0;
  /// Bound survivors re-ranked through the exact float kernel.
  std::uint64_t reranked = 0;
  /// Approximate tier only (approx_factor > 1): of the pruned
  /// candidates, how many the LOSSLESS cutoff derived from the same
  /// running threshold provably would have pruned too (always <=
  /// quantized_pruned). Conservative: a whole-block relaxed base prune
  /// skips the integer kernel, so when the exact contract would have
  /// needed it, nothing is counted as exactly proven.
  std::uint64_t approx_pruned_exactly = 0;
  /// Bytes the sweep streamed: count * dim * sizeof(Scalar) on the exact
  /// path; count * dim code bytes plus the re-ranked float rows on the
  /// quantized path (zero when the query's base term pruned the whole
  /// block before the mirror was read). Bookkeeping only — simulated
  /// time still derives from page counts and distance computations.
  std::uint64_t leaf_bytes_scanned = 0;
};

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
  Sq8Query query;
  std::vector<std::uint8_t> qcodes;    // batched sweeps: members x dim
  std::vector<Sq8Bound> bounds;        // batched sweeps: one per member
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

/// Sweeps one leaf block for a distance-threshold query (k-NN, ball).
/// `threshold()` is the caller's CURRENT comparable-space cutoff — a
/// candidate strictly above it can no longer matter (k-th best bound, or
/// the ball radius); it is re-read after every emit — the only point it
/// can tighten — so each candidate is tested against the threshold in
/// force when the sweep reaches it, exactly as a per-candidate re-read
/// would. `emit(i, comparable)` receives every surviving candidate
/// with its exact comparable distance, in block order — bit-identical,
/// on both paths, to what the exact kernels compute.
///
/// `approx_factor` > 1 enables the approximate tier's bound relaxation
/// (quantized blocks only; the exact path has no cutoff to relax): the
/// SQ8 prune cutoff derives from threshold()/approx_factor
/// instead of threshold(), so candidates whose lower bound clears the
/// exact threshold but not the relaxed one are dropped without a
/// re-rank — deliberately lossy, measured by the recall harness
/// (src/eval/recall.h). approx_pruned_exactly counts, among the pruned,
/// those the lossless cutoff at the same running threshold would also
/// have killed. At 1.0 (the default) every approx branch is dead and
/// the sweep is bit-identical to the pre-approx code.
template <typename ThresholdFn, typename EmitFn>
LeafSweepStats SweepLeafDistances(const LeafBlock& block, PointView query,
                                  const Metric& metric,
                                  ThresholdFn&& threshold, EmitFn&& emit,
                                  double approx_factor = 1.0) {
  LeafSweepStats sweep;
  detail::LeafSweepScratch& scratch = detail::SweepScratch();
  if (!block.has_sq8) {
    ScopedPhase phase(Phase::kSweepRerank);
    detail::GrowTo(scratch.dists, block.count);
    metric.ComparableMany(query, block.coords.data(), block.count, block.dim,
                          scratch.dists.data());
    for (std::size_t i = 0; i < block.count; ++i) {
      emit(i, scratch.dists[i]);
    }
    sweep.exact_distances = block.count;
    sweep.leaf_bytes_scanned = block.count * block.dim * sizeof(Scalar);
    return sweep;
  }
  {
    ScopedPhase phase(Phase::kSweepPrep);
    scratch.query.Prepare(block.sq8, query, metric.kind());
  }
  // When the query's candidate-independent `base` term already exceeds
  // the threshold (a query far outside the block's lattice range —
  // PruneCutoff's negative sentinel), every candidate prunes without the
  // integer kernel ever running: the sweep costs one query preparation.
  const bool approx = approx_factor > 1.0;
  double last_threshold = threshold();
  double dcut = scratch.query.bound.PruneCutoff(
      approx ? last_threshold / approx_factor : last_threshold);
  if (dcut < 0.0) {
    sweep.base_pruned = block.count;
    sweep.quantized_pruned = block.count;
    if (approx && scratch.query.bound.PruneCutoff(last_threshold) < 0.0) {
      sweep.approx_pruned_exactly = block.count;
    }
    return sweep;
  }
  // One SIMD pass compresses the survivor indices under the cutoff in
  // force at block entry; the emit loop then re-checks each survivor
  // against the current cutoff, which only tightens when an emit lands.
  // Per candidate this decides exactly what the naive interleaved loop
  // decides: a candidate pruned at entry is pruned under any later
  // (tighter) cutoff too, and one that entry-survives but reaches the
  // emit loop after a tightening is caught by the re-check — so counters
  // and emitted keys are identical, at one compare per candidate plus
  // one per survivor.
  const ComparableFn exact = metric.comparable_fn();
  std::uint32_t cutoff = detail::IntCutoff(dcut);
  // Exact-attribution twin of `cutoff` (approx only): the integer
  // cutoff the lossless contract would use at the same threshold.
  // PruneCutoff is monotone in its threshold and the relaxed cutoff was
  // non-negative, so the exact one is too, ecut >= cutoff, and the
  // exactly-proven prunes are a subset of the relaxed prunes.
  std::uint32_t ecut = 0;
  if (approx) {
    ecut = detail::IntCutoff(scratch.query.bound.PruneCutoff(last_threshold));
  }
  detail::GrowTo(scratch.survivors, block.count);
  detail::GrowTo(scratch.reductions, block.count);
  std::size_t nsurv;
  {
    ScopedPhase phase(Phase::kSweepFull);
    metric.Sq8Many(scratch.query.codes.data(), block.sq8.codes.data(),
                   block.count, block.dim, scratch.reductions.data());
    nsurv = detail::CollectSurvivors(scratch.reductions.data(), block.count,
                                     cutoff, scratch.survivors.data());
    sweep.sq8_pruned += block.count - nsurv;
    if (approx) {
      sweep.approx_pruned_exactly += block.count - detail::CountSurvivors(
          scratch.reductions.data(), block.count, ecut);
    }
  }
  {
    ScopedPhase phase(Phase::kSweepRerank);
    // The threshold can only tighten when an emit lands, so it is
    // re-read exactly once per emit instead of once per survivor —
    // every survivor still sees the same (cutoff, dcut) state as the
    // read-every-iteration loop, and the counters match it exactly.
    for (std::size_t s = 0; s < nsurv; ++s) {
      const std::size_t i = scratch.survivors[s];
      const std::uint32_t reduction = scratch.reductions[i];
      if (reduction > cutoff) {
        ++sweep.sq8_pruned;
        if (approx && reduction > ecut) ++sweep.approx_pruned_exactly;
        continue;
      }
      ++sweep.reranked;
      emit(i, exact(query.data(), block.row(i).data(), block.dim));
      const double t = threshold();
      if (t != last_threshold) {
        last_threshold = t;
        dcut = scratch.query.bound.PruneCutoff(approx ? t / approx_factor : t);
        if (dcut < 0.0) {
          sweep.base_pruned += nsurv - s - 1;
          if (approx) {
            // Exact attribution of the rest-of-block drop: the exact
            // base may not have crossed yet, in which case each
            // remaining survivor's already-computed reduction decides.
            const double ed = scratch.query.bound.PruneCutoff(t);
            if (ed < 0.0) {
              sweep.approx_pruned_exactly += nsurv - s - 1;
            } else {
              const std::uint32_t ec = detail::IntCutoff(ed);
              for (std::size_t r = s + 1; r < nsurv; ++r) {
                if (scratch.reductions[scratch.survivors[r]] > ec) {
                  ++sweep.approx_pruned_exactly;
                }
              }
            }
          }
          break;
        }
        cutoff = detail::IntCutoff(dcut);
        if (approx) {
          ecut = detail::IntCutoff(scratch.query.bound.PruneCutoff(t));
        }
      }
    }
  }
  sweep.quantized_pruned = sweep.base_pruned + sweep.sq8_pruned;
  sweep.exact_distances = sweep.reranked;
  sweep.leaf_bytes_scanned = block.count * block.dim +
                             sweep.reranked * block.dim * sizeof(Scalar);
  return sweep;
}

/// Sweeps one leaf block for a containment query (range / partial
/// match), appending matching ids to `out`. On a quantized block a
/// conservative per-dimension code-interval prefilter runs over the
/// uint8 mirror first; survivors go through the exact float Contains, so
/// the id set matches the exact sweep exactly.
LeafSweepStats SweepLeafRange(const LeafBlock& block, const Rect& query,
                              std::vector<PointId>* out);

/// Batched variant of SweepLeafDistances: `members` queries (row-major,
/// members x block.dim scalars) against one block, one many-to-many
/// kernel call. `threshold(m)` and `emit(m, i, comparable)` are the
/// per-member analogues; for each member, candidates arrive in block
/// order (members in ascending order), so the per-member emit sequence
/// matches the single-query sweep exactly. `stats` must have `members`
/// entries; entry m accumulates member m's share. `approx_factor` is
/// the approximate tier's bound relaxation, exactly as in
/// SweepLeafDistances (1.0 = exact, bit-identical to the pre-approx
/// code).
template <typename ThresholdFn, typename EmitFn>
void SweepLeafBlockMany(const LeafBlock& block, const Scalar* queries,
                        std::size_t members, const Metric& metric,
                        ThresholdFn&& threshold, EmitFn&& emit,
                        LeafSweepStats* stats, double approx_factor = 1.0) {
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
      stats[m].exact_distances += block.count;
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
    std::uint64_t base_pruned = 0;
    std::uint64_t sq8_pruned = 0;
    std::uint64_t reranked = 0;
    std::uint64_t approx_exact = 0;
    // Same compress-then-recheck structure as SweepLeafDistances, and
    // the same per-candidate decisions as the naive interleaved loop.
    double last_threshold = threshold(m);
    double dcut = scratch.bounds[m].PruneCutoff(
        approx ? last_threshold / approx_factor : last_threshold);
    if (dcut < 0.0) {
      base_pruned += block.count;
      if (approx && scratch.bounds[m].PruneCutoff(last_threshold) < 0.0) {
        approx_exact += block.count;
      }
    } else {
      std::uint32_t cutoff = detail::IntCutoff(dcut);
      std::uint32_t ecut = 0;
      if (approx) {
        ecut = detail::IntCutoff(scratch.bounds[m].PruneCutoff(last_threshold));
      }
      std::size_t nsurv;
      {
        ScopedPhase phase(Phase::kSweepFull);
        nsurv = detail::CollectSurvivors(row, block.count, cutoff,
                                         scratch.survivors.data());
        sq8_pruned += block.count - nsurv;
        if (approx) {
          approx_exact +=
              block.count - detail::CountSurvivors(row, block.count, ecut);
        }
      }
      ScopedPhase phase(Phase::kSweepRerank);
      // Threshold re-read once per emit (it can only change on an
      // emit), as in the single-query sweep — same decisions, same
      // counters, one callback per emit instead of per survivor.
      for (std::size_t s = 0; s < nsurv; ++s) {
        const std::size_t i = scratch.survivors[s];
        if (row[i] > cutoff) {
          ++sq8_pruned;
          if (approx && row[i] > ecut) ++approx_exact;
          continue;
        }
        ++reranked;
        emit(m, i, exact(qrow, block.row(i).data(), dim));
        const double t = threshold(m);
        if (t != last_threshold) {
          last_threshold = t;
          dcut = scratch.bounds[m].PruneCutoff(approx ? t / approx_factor : t);
          if (dcut < 0.0) {
            base_pruned += nsurv - s - 1;
            if (approx) {
              const double ed = scratch.bounds[m].PruneCutoff(t);
              if (ed < 0.0) {
                approx_exact += nsurv - s - 1;
              } else {
                const std::uint32_t ec = detail::IntCutoff(ed);
                for (std::size_t r = s + 1; r < nsurv; ++r) {
                  if (row[scratch.survivors[r]] > ec) ++approx_exact;
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
    stats[m].exact_distances += reranked;
    stats[m].quantized_pruned += base_pruned + sq8_pruned;
    stats[m].base_pruned += base_pruned;
    stats[m].sq8_pruned += sq8_pruned;
    stats[m].reranked += reranked;
    stats[m].approx_pruned_exactly += approx_exact;
    stats[m].leaf_bytes_scanned +=
        block.count * dim + reranked * dim * sizeof(Scalar);
  }
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
LeafSweepStats SweepLeafBlockSelf(const LeafBlock& block, const Metric& metric,
                                  double threshold, EmitFn&& emit) {
  LeafSweepStats sweep;
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
    sweep.exact_distances = total_pairs;
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
  sweep.exact_distances = sweep.reranked;
  sweep.leaf_bytes_scanned =
      total_pairs * dim + sweep.reranked * dim * sizeof(Scalar);
  return sweep;
}

}  // namespace parsim

#endif  // PARSIM_SRC_INDEX_LEAF_SWEEP_H_
