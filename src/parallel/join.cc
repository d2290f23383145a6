#include "src/parallel/join.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/geometry/sq8.h"
#include "src/index/knn.h"
#include "src/index/leaf_sweep.h"
#include "src/index/node.h"
#include "src/parallel/engine.h"
#include "src/util/check.h"

namespace parsim {

namespace {

/// One non-empty leaf of the join, in ascending node-id order.
struct JoinLeaf {
  NodeId id = kInvalidNodeId;
  Rect mbr;                       // from the parent's entry: no data read
  std::uint32_t parent = 0;       // index into the parent list
  const Node* node = nullptr;     // filled by the fetch stage
  TreeBase::DiskRoute route;      // filled by the fetch stage
  std::uint32_t touches = 0;      // pair-sides landing here (self = 1)
  // Codebook coordinates (quantized joins only): which codebook group
  // this leaf belongs to, its first row in that group's concatenated
  // point range, and how many rows it has.
  std::uint32_t group = 0;
  std::size_t prow = 0;
  std::uint32_t count = 0;
};

/// Shared SQ8 codebook of one leaf group: every row of a contiguous
/// run of leaves, coded ONCE on one lattice, with its fixed-threshold
/// prune cutoff precomputed. A k-NN sweep must re-prepare each query
/// against each block's private lattice because its threshold keeps
/// tightening; the join's threshold never moves, so query codes,
/// bounds, and cutoffs are pure functions of the row — building them
/// per group amortizes all per-pair preparation away, and pairs inside
/// a group sweep stored code rows directly. The Sq8Bound contract is
/// lattice-agnostic, so pruning on the shared (coarser) lattice is
/// just as lossless as pruning on each leaf's own.
struct GroupCodes {
  Sq8Mirror mirror;                  // lattice + code rows, leaf-concat order
  std::vector<std::uint8_t> qcodes;  // every row coded as a query
  std::vector<double> cutoffs;       // PruneCutoff(eps); < 0 => row pruned
  std::vector<Scalar> rows;          // concatenated float rows (rerank)
  std::vector<PointId> ids;          // concatenated point ids
  std::size_t total = 0;
  bool ready = false;
};

/// A level-1 directory node: its MBR prunes all contained leaf pairs at
/// once (parent MBRs contain their children's, so parent-pair MINDIST
/// lower-bounds every contained leaf-pair MINDIST — a lossless
/// prefilter that cuts the L^2 leaf-pair scan to surviving parents).
struct JoinParent {
  Rect mbr;
  std::vector<std::uint32_t> leaves;  // indices into the leaf list
};

/// Per-row-task output. The merge adds `sweep` to the accumulator in row
/// order, so every counter is thread-count invariant; `sweep` also
/// counts the row's kernel runs (block_kernel_invocations). [a_min,
/// a_max] spans the smaller ids of the row's pairs (empty when a_min >
/// a_max): the range the merge buckets cut.
struct RowOutput {
  Counters sweep;
  std::vector<JoinPair> pairs;
  PointId a_min = kInvalidPointId;
  PointId a_max = 0;
};

/// Pairs per merge bucket on average: the merge cuts the range of the
/// smaller id into about total / kMergeBucketPairs equal-width buckets,
/// enough tasks to spread the bucket sorts over the pool while each one
/// still sorts in cache.
inline constexpr std::size_t kMergeBucketPairs = 4096;

/// Marks a query view whose rows do NOT live in the swept codebook
/// (the owner leaf sits in a different group).
inline constexpr std::size_t kNoOwnRow = static_cast<std::size_t>(-1);

/// Query side of a codebook run: the owner leaf's rows coded on the
/// TARGET group's lattice. Inside the owner's own group the view
/// aliases the group's stored codes/cutoffs/rows (`qrow0` is the
/// owner's first codebook row); for a run in a foreign group the
/// caller codes the owner's rows on that group's lattice once per
/// (owner leaf, foreign group) and `qrow0` is kNoOwnRow.
struct QueryCodes {
  const std::uint8_t* codes = nullptr;  // nq coded query rows
  const double* cutoffs = nullptr;      // nq cutoffs; < 0 => base prune
  const Scalar* rows = nullptr;         // nq float rows (rerank)
  const PointId* ids = nullptr;         // nq point ids
  std::size_t nq = 0;
  std::size_t qrow0 = kNoOwnRow;
};

/// Sweeps one contiguous codebook run for one owner leaf; [begin, end)
/// is the run's candidate row range inside `pc`. When the run starts
/// at the owner itself (begin == qv.qrow0), query row r scans only
/// rows past its own (qrow0 + r + 1 .. end): the owner's self
/// triangle and every merged following pair in one stroke, each
/// unordered pair exactly once. Otherwise all nq query rows scan the
/// full range.
///
/// Candidates at or under a row's precomputed integer cutoff are
/// reranked in float and emitted on `cmp <= eps_cmp` — the bound is
/// lossless, so the emitted set matches the exact sweep's exactly.
///
/// `run_box` is the union of the run's leaf MBRs: a query row whose
/// MINDIST to it exceeds epsilon skips its kernel outright — the
/// point-to-page region filter of the MBR-join literature applied at
/// run grain. It pays for sparse or low-dimensional data where points
/// sit farther than epsilon from a neighboring run's box; at the
/// clustered high-dim bench density nearly all candidates share the
/// owner's cluster and the test passes, costing only ~dim ops per
/// query row (lossless either way).
void SweepCodebookRun(const GroupCodes& pc, const QueryCodes& qv,
                      const Metric& metric, double eps_cmp,
                      const Rect& run_box, std::size_t begin, std::size_t end,
                      RowOutput* out) {
  const std::size_t dim = pc.mirror.dim;
  const std::size_t nq = qv.nq;
  const bool tail = begin == qv.qrow0;
  Counters sweep;
  // Survivors accumulate into ONE flat batch of absolute codebook rows
  // (Sq8ManyUnder writes straight into it, then a single pass rebases
  // the run-relative indices) plus one (query row, count) group
  // per surviving query row — no per-survivor bookkeeping sits between
  // the integer kernels, and the rerank pass walks a dense array.
  struct RerankGroup {
    std::uint32_t g;
    std::uint32_t count;
  };
  thread_local std::vector<std::uint32_t> rerank_rows;
  thread_local std::vector<RerankGroup> rerank_groups;
  rerank_groups.clear();
  std::size_t rerank_n = 0;
  const std::uint8_t* codes = pc.mirror.codes.data();
  std::uint64_t streamed = 0;
  {
    ScopedPhase phase(Phase::kSweepFull);
    for (std::size_t r = 0; r < nq; ++r) {
      const std::size_t row_begin = tail ? qv.qrow0 + r + 1 : begin;
      if (row_begin >= end) continue;
      const std::size_t width = end - row_begin;
      const double dcut = qv.cutoffs[r];
      if (dcut < 0.0) {
        // The row prunes on its base term alone: its kernel call is
        // skipped outright, so none of its code bytes stream.
        sweep.base_pruned += width;
        continue;
      }
      double box_dist = 0.0;
      if (MinDistExceeds(run_box, PointView(qv.rows + r * dim, dim), metric,
                         eps_cmp, &box_dist)) {
        // The row's point sits more than epsilon from the run's box:
        // no candidate in [row_begin, end) can pair with it, and its
        // kernel is skipped like a base-term prune.
        sweep.base_pruned += width;
        continue;
      }
      streamed += width;
      // The fused kernel compares reductions against the cutoff
      // in-register and appends survivor indices straight into the
      // flat batch, without storing the reduction stream.
      detail::GrowTo(rerank_rows, rerank_n + width);
      std::uint32_t* dst = rerank_rows.data() + rerank_n;
      const std::size_t nsurv =
          metric.Sq8ManyUnder(qv.codes + r * dim, codes + row_begin * dim,
                              width, dim, detail::IntCutoff(dcut), dst);
      sweep.sq8_pruned += width - nsurv;
      if (nsurv == 0) continue;
      for (std::size_t s = 0; s < nsurv; ++s) {
        dst[s] += static_cast<std::uint32_t>(row_begin);
      }
      rerank_groups.push_back(RerankGroup{static_cast<std::uint32_t>(r),
                                          static_cast<std::uint32_t>(nsurv)});
      rerank_n += nsurv;
    }
  }
  {
    ScopedPhase phase(Phase::kSweepRerank);
    const ComparableFn exact = metric.comparable_fn();
    const Scalar* cand_base = pc.rows.data();
    std::size_t at = 0;
    for (const RerankGroup& grp : rerank_groups) {
      const Scalar* q = qv.rows + static_cast<std::size_t>(grp.g) * dim;
      for (std::uint32_t k = 0; k < grp.count; ++k, ++at) {
        // The candidate float rows land all over the group range, so
        // on big joins each rerank is a cache miss; touching a few rows
        // ahead hides that latency behind the current pair kernel.
        if (at + 4 < rerank_n) {
          __builtin_prefetch(cand_base + rerank_rows[at + 4] * dim);
        }
        const std::size_t c = rerank_rows[at];
        const double cmp = exact(q, cand_base + c * dim, dim);
        if (cmp <= eps_cmp) {
          PointId a = qv.ids[grp.g];
          PointId b = pc.ids[c];
          if (a > b) std::swap(a, b);
          out->pairs.push_back(JoinPair{a, b, metric.FromComparable(cmp)});
        }
      }
    }
    sweep.reranked = rerank_n;
  }
  sweep.quantized_pruned = sweep.base_pruned + sweep.sq8_pruned;
  sweep.distance_computations = sweep.reranked;
  sweep.leaf_bytes_scanned =
      streamed * dim + sweep.reranked * dim * sizeof(Scalar);
  out->sweep += sweep;
}

}  // namespace

SimilarityJoin::SimilarityJoin(const TreeBase& tree, const Metric& metric)
    : tree_(tree), metric_(metric) {}

std::vector<JoinPair> SimilarityJoin::Run(double epsilon,
                                          QueryCostAccumulator* acc,
                                          ThreadPool* pool,
                                          PhaseAccumulator* phases,
                                          JoinStats* stats) const {
  PARSIM_CHECK(epsilon >= 0.0);
  PARSIM_CHECK(acc != nullptr);
  PARSIM_CHECK(stats != nullptr);
  ScopedPhaseCapture phase_capture(phases);
  const double eps_cmp = metric_.ToComparable(epsilon);
  const std::size_t dim = tree_.dim();
  // Runs body(0 .. n-1) over the pool and the caller, or in a plain loop
  // when there is no pool. Every stage's bodies write only their own
  // slots, so both give the same result; each body installs `phases`
  // and opens its own phase scope, since a scope around the loop would
  // book the caller's own iterations twice.
  const auto pooled_for = [pool](std::size_t n,
                                 const std::function<void(std::size_t)>& body) {
    if (pool != nullptr && pool->size() > 1) {
      pool->ParallelFor(0, n, body);
    } else {
      for (std::size_t i = 0; i < n; ++i) body(i);
    }
  };

  // ---- Stage 1: enumerate the leaves. One descent reads (and charges)
  // every directory page once; leaf ids and MBRs come from their
  // parents' entries, so no data page is touched yet.
  std::vector<JoinLeaf> leaves;
  std::vector<JoinParent> parents;
  if (tree_.root_id() == kInvalidNodeId) return {};
  {
    ScopedPhase phase(Phase::kDescent);
    ScopedCostCapture capture(acc);
    const Node& root = tree_.AccessNode(tree_.root_id());
    if (root.IsLeaf()) {
      // Height-1 tree: the root IS the single leaf. Its MBR has no
      // parent entry to come from, but with one leaf there is exactly
      // one (self) block pair and the MBR test is moot.
      if (!root.entries.empty()) {
        parents.push_back(JoinParent{root.ComputeMbr(dim), {0}});
        JoinLeaf leaf;
        leaf.id = tree_.root_id();
        leaf.mbr = root.ComputeMbr(dim);
        leaves.push_back(std::move(leaf));
      }
    } else {
      std::vector<const Node*> stack = {&root};
      while (!stack.empty()) {
        const Node* node = stack.back();
        stack.pop_back();
        if (node->level == 1) {
          const std::uint32_t p = static_cast<std::uint32_t>(parents.size());
          parents.push_back(JoinParent{node->ComputeMbr(dim), {}});
          for (const NodeEntry& e : node->entries) {
            JoinLeaf leaf;
            leaf.id = e.child;
            leaf.mbr = e.rect;
            leaf.parent = p;
            leaves.push_back(std::move(leaf));
          }
        } else {
          for (const NodeEntry& e : node->entries) {
            stack.push_back(&tree_.AccessNode(e.child));
          }
        }
      }
    }
  }
  const std::size_t num_leaves = leaves.size();
  stats->leaf_blocks = num_leaves;
  stats->block_pairs_considered =
      static_cast<std::uint64_t>(num_leaves) * (num_leaves + 1) / 2;
  if (num_leaves == 0) return {};

  // Ascending node id defines the leaf index (deterministic whatever
  // order the descent produced), then parent lists are rebuilt on it.
  std::sort(leaves.begin(), leaves.end(),
            [](const JoinLeaf& a, const JoinLeaf& b) { return a.id < b.id; });
  for (std::uint32_t i = 0; i < num_leaves; ++i) {
    parents[leaves[i].parent].leaves.push_back(i);
  }

  // ---- Stage 2: prune block pairs by MBR MINDIST. Self pairs always
  // survive (MINDIST(i, i) == 0 <= any eps >= 0); cross pairs are
  // tested leaf-against-leaf only when their parents' MBRs pass first.
  // One task per parent p tests the parents q >= p into its own list;
  // the lists are appended in parent order and every row is sorted, so
  // the rows cannot depend on scheduling. Row i owns every surviving
  // pair (i, j), j >= i — Özkural & Aykanat's 1-D owner-computes
  // decomposition: each pair is swept by exactly one row task.
  const std::size_t num_parents = parents.size();
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> survivors(
      num_parents);
  pooled_for(num_parents, [&](std::size_t p) {
    ScopedPhaseCapture worker_capture(phases);
    ScopedPhase phase(Phase::kDescent);
    for (std::size_t q = p; q < num_parents; ++q) {
      if (MinDistComparable(parents[p].mbr, parents[q].mbr, metric_) >
          eps_cmp) {
        continue;
      }
      for (const std::uint32_t li : parents[p].leaves) {
        for (const std::uint32_t lj : parents[q].leaves) {
          if (p == q && lj <= li) continue;  // each unordered pair once
          if (MinDistComparable(leaves[li].mbr, leaves[lj].mbr, metric_) >
              eps_cmp) {
            continue;
          }
          survivors[p].emplace_back(std::min(li, lj), std::max(li, lj));
        }
      }
    }
  });
  std::vector<std::vector<std::uint32_t>> row_pairs(num_leaves);
  std::uint64_t swept = num_leaves;
  {
    ScopedPhase phase(Phase::kDescent);
    for (std::uint32_t i = 0; i < num_leaves; ++i) row_pairs[i].push_back(i);
    for (const auto& list : survivors) {
      for (const auto& [lo, hi] : list) row_pairs[lo].push_back(hi);
      swept += list.size();
    }
  }
  pooled_for(num_leaves, [&](std::size_t i) {
    ScopedPhaseCapture worker_capture(phases);
    ScopedPhase phase(Phase::kDescent);
    std::sort(row_pairs[i].begin(), row_pairs[i].end());
  });
  stats->block_pairs_swept = swept;
  stats->block_pairs_pruned = stats->block_pairs_considered - swept;

  // ---- Stage 3: fetch each distinct leaf once, ascending node id, the
  // leader paying the (possibly faulted or buffered) read; every
  // further pair-side touching the leaf books coalesced pages against
  // the same disk, exactly like a coalesced batch round's followers.
  for (std::size_t i = 0; i < num_leaves; ++i) {
    for (const std::uint32_t j : row_pairs[i]) {
      ++leaves[i].touches;
      if (j != static_cast<std::uint32_t>(i)) ++leaves[j].touches;
    }
  }
  {
    ScopedPhase phase(Phase::kIo);
    ScopedCostCapture capture(acc);
    for (JoinLeaf& leaf : leaves) {
      leaf.node = &tree_.AccessNode(leaf.id, &leaf.route);
    }
  }
  for (const JoinLeaf& leaf : leaves) {
    PARSIM_CHECK(leaf.touches >= 1);
    const std::uint64_t extra = leaf.touches - 1;
    if (extra == 0) continue;
    const std::uint64_t pages = extra * leaf.node->pages;
    DiskStats& s = acc->slot(leaf.route.disk->id());
    s.coalesced_reads += pages;
    if (leaf.route.failover) s.replica_pages += pages;
    if (leaf.route.unavailable) s.unavailable_pages += pages;
  }

  // ---- Stage 3.5 (quantized trees only): cut the sorted leaf list
  // into contiguous groups of roughly kGroupRowBudget rows and build
  // each group's shared codebook. Leaf order follows the bulk load's
  // space-filling pack, so a bounded contiguous run covers a compact
  // region and its lattice stays tight regardless of how many level-1
  // parents a dense region spans (at scale one cluster spreads over
  // several parents, which is why parents are the wrong codebook
  // unit). Groups are independent pure functions of their fetched rows
  // and the fixed epsilon, so the builds fan out over the pool and the
  // result cannot depend on scheduling.
  std::vector<GroupCodes> codebooks;
  if (tree_.quantized_leaf_blocks()) {
    std::size_t total_rows = 0;
    for (const JoinLeaf& leaf : leaves) {
      total_rows += leaf.node->entries.size();
    }
    // ~64 groups at scale keeps lattices near cluster extent while
    // the floor stops tiny joins from degenerating into per-leaf
    // codebooks (wide merged runs need wide groups).
    const std::size_t budget =
        std::max<std::size_t>(4096, total_rows / 64);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> group_ranges;
    {
      std::uint32_t gbegin = 0;
      std::size_t in_group = 0;
      for (std::uint32_t i = 0; i < num_leaves; ++i) {
        const std::size_t c = leaves[i].node->entries.size();
        if (in_group > 0 && in_group + c > budget) {
          group_ranges.emplace_back(gbegin, i);
          gbegin = i;
          in_group = 0;
        }
        leaves[i].group = static_cast<std::uint32_t>(group_ranges.size());
        in_group += c;
      }
      group_ranges.emplace_back(gbegin, static_cast<std::uint32_t>(num_leaves));
    }
    codebooks.resize(group_ranges.size());
    const auto build_group = [&](std::size_t g) {
      ScopedPhaseCapture worker_capture(phases);
      ScopedPhase phase(Phase::kSweepPrep);
      GroupCodes& pc = codebooks[g];
      std::size_t total = 0;
      for (std::uint32_t li = group_ranges[g].first;
           li < group_ranges[g].second; ++li) {
        JoinLeaf& leaf = leaves[li];
        leaf.prow = total;
        leaf.count = static_cast<std::uint32_t>(leaf.node->entries.size());
        total += leaf.count;
      }
      if (total == 0) return;
      pc.rows.resize(total * dim);
      pc.ids.resize(total);
      for (std::uint32_t li = group_ranges[g].first;
           li < group_ranges[g].second; ++li) {
        const JoinLeaf& leaf = leaves[li];
        if (leaf.count == 0) continue;
        const LeafBlock& b = leaf.node->block;
        std::copy(b.coords.begin(), b.coords.end(),
                  pc.rows.data() + leaf.prow * dim);
        std::copy(b.ids.begin(), b.ids.end(), pc.ids.data() + leaf.prow);
      }
      pc.mirror.BuildFrom(pc.rows.data(), total, dim);
      pc.qcodes.resize(total * dim);
      std::vector<Sq8Bound> bounds(total);
      PrepareSq8QueryMany(pc.mirror, pc.rows.data(), total, metric_.kind(),
                          pc.qcodes.data(), bounds.data());
      pc.cutoffs.resize(total);
      for (std::size_t r = 0; r < total; ++r) {
        pc.cutoffs[r] = bounds[r].PruneCutoff(eps_cmp);
      }
      pc.total = total;
      pc.ready = true;
    };
    pooled_for(codebooks.size(), build_group);
  }

  // ---- Stage 4: sweep the rows over the pool. Rows are handed out
  // round-robin across their owning disks so the declustered load (and
  // with it the simulated makespan) stays even; per-row outputs land in
  // private slots and are merged in row order afterwards, so results
  // and counters cannot depend on the interleaving.
  std::vector<std::uint32_t> order(num_leaves);
  {
    std::vector<std::vector<std::uint32_t>> by_disk;
    for (std::uint32_t i = 0; i < num_leaves; ++i) {
      const std::size_t d = leaves[i].route.disk->id();
      if (by_disk.size() <= d) by_disk.resize(d + 1);
      by_disk[d].push_back(i);
    }
    std::size_t at = 0;
    for (std::size_t round = 0; at < num_leaves; ++round) {
      for (const std::vector<std::uint32_t>& bucket : by_disk) {
        if (round < bucket.size()) order[at++] = bucket[round];
      }
    }
  }
  std::vector<RowOutput> rows(num_leaves);
  const auto run_row = [&](std::size_t slot) {
    const std::uint32_t i = order[slot];
    ScopedPhaseCapture worker_capture(phases);
    RowOutput& out = rows[i];
    const Node& node_i = *leaves[i].node;
    if (node_i.entries.empty()) return;
    const LeafBlock& bi = node_i.block;
    thread_local std::vector<Counters> member_stats;
    // Foreign-group query prep, cached per (owner row, target group):
    // js is sorted and groups are contiguous leaf ranges, so every pair
    // landing in one foreign group is handled while `prepped` holds it
    // — the owner's ~leaf-capacity rows are coded on that group's
    // lattice exactly once however many runs the group splits into.
    thread_local std::vector<std::uint8_t> fq_codes;
    thread_local std::vector<Sq8Bound> fq_bounds;
    thread_local std::vector<double> fq_cutoffs;
    std::int64_t prepped = -1;
    const std::vector<std::uint32_t>& js = row_pairs[i];
    for (std::size_t t = 0; t < js.size();) {
      const std::uint32_t j = js[t];
      // Quantized pairs ride the target group's codebook: maximal sets
      // of pairs whose code rows sit back to back merge into ONE run,
      // so each query row's kernel and prune scan span every merged
      // pair (wide rows amortize the per-call overhead the ~60-row
      // per-pair shape would pay hundreds of times over).
      if (!codebooks.empty() && codebooks[leaves[j].group].ready) {
        const std::uint32_t g = leaves[j].group;
        const GroupCodes& pc = codebooks[g];
        const std::size_t begin = leaves[j].prow;
        std::size_t end = begin + leaves[j].count;
        Rect run_box = leaves[j].mbr;
        std::size_t t2 = t + 1;
        while (t2 < js.size()) {
          const JoinLeaf& next = leaves[js[t2]];
          if (next.group != g || next.prow != end) break;
          run_box = Rect::Union(run_box, next.mbr);
          end += next.count;
          ++t2;
        }
        QueryCodes qv;
        if (g == leaves[i].group) {
          const std::size_t qrow0 = leaves[i].prow;
          qv = QueryCodes{pc.qcodes.data() + qrow0 * dim,
                          pc.cutoffs.data() + qrow0,
                          pc.rows.data() + qrow0 * dim,
                          pc.ids.data() + qrow0,
                          bi.count,
                          qrow0};
        } else {
          if (prepped != static_cast<std::int64_t>(g)) {
            ScopedPhase prep_phase(Phase::kSweepPrep);
            fq_codes.resize(bi.count * dim);
            fq_bounds.resize(bi.count);
            fq_cutoffs.resize(bi.count);
            PrepareSq8QueryMany(pc.mirror, bi.coords.data(), bi.count,
                                metric_.kind(), fq_codes.data(),
                                fq_bounds.data());
            for (std::size_t r = 0; r < bi.count; ++r) {
              fq_cutoffs[r] = fq_bounds[r].PruneCutoff(eps_cmp);
            }
            prepped = static_cast<std::int64_t>(g);
          }
          qv = QueryCodes{fq_codes.data(), fq_cutoffs.data(),
                          bi.coords.data(), bi.ids.data(), bi.count,
                          kNoOwnRow};
        }
        SweepCodebookRun(pc, qv, metric_, eps_cmp, run_box, begin, end, &out);
        out.sweep.block_kernel_invocations += t2 - t;
        t = t2;
        continue;
      }
      if (j == i) {
        out.sweep += SweepLeafBlockSelf(
            bi, metric_, [&](std::size_t li, std::size_t lj, double cmp) {
              if (cmp <= eps_cmp) {
                PointId a = bi.ids[li];
                PointId b = bi.ids[lj];
                if (a > b) std::swap(a, b);
                out.pairs.push_back(
                    JoinPair{a, b, metric_.FromComparable(cmp)});
              }
            });
        ++out.sweep.block_kernel_invocations;
        ++t;
        continue;
      }
      const Node& node_j = *leaves[j].node;
      if (node_j.entries.empty()) {
        ++t;
        continue;
      }
      const LeafBlock& bj = node_j.block;
      // Cross pair: the owner row's points are the "queries" swept
      // against block j — one many-to-many kernel with the join's fixed
      // threshold (it never tightens, unlike a k-NN heap bound). Only
      // exact trees get here: a quantized join sends every pair through
      // the codebooks above.
      PARSIM_CHECK(!bj.has_sq8);
      member_stats.assign(bi.count, Counters{});
      SweepLeafBlockMany(
          bj, bi.coords.data(), bi.count, metric_,
          [eps_cmp](std::size_t) { return eps_cmp; },
          [&](std::size_t m, std::size_t idx, double cmp) {
            if (cmp <= eps_cmp) {
              PointId a = bi.ids[m];
              PointId b = bj.ids[idx];
              if (a > b) std::swap(a, b);
              out.pairs.push_back(JoinPair{a, b, metric_.FromComparable(cmp)});
            }
          },
          member_stats.data());
      for (const Counters& ms : member_stats) out.sweep += ms;
      ++out.sweep.block_kernel_invocations;
      ++t;
    }
    for (const JoinPair& pair : out.pairs) {
      out.a_min = std::min(out.a_min, pair.a);
      out.a_max = std::max(out.a_max, pair.a);
    }
  };
  pooled_for(num_leaves, run_row);

  // ---- Merge, in row order. Sweep CPU and counters are charged to the
  // disk owning the row's leaf (owner-computes: the compute sits next to
  // the data it swept), one block-kernel invocation per swept pair. The
  // pairs are counted, then scattered in row order, into equal-width
  // buckets of the smaller id `a` (power-of-two width, about
  // total / kMergeBucketPairs of them), and each bucket is sorted as its
  // own task. Every unordered pair is emitted exactly once, so
  // JoinPair's operator< is a total order on the list: the sorted
  // buckets in bucket order are THE sorted list at any thread count.
  std::size_t total = 0;
  PointId a_min = kInvalidPointId;
  PointId a_max = 0;
  for (std::size_t i = 0; i < num_leaves; ++i) {
    const RowOutput& out = rows[i];
    acc->slot(leaves[i].route.disk->id()) += out.sweep;
    total += out.pairs.size();
    a_min = std::min(a_min, out.a_min);
    a_max = std::max(a_max, out.a_max);
  }
  stats->pairs_emitted = total;
  if (total == 0) return {};
  const std::uint64_t span = a_max - a_min;
  const std::uint64_t target =
      std::max<std::size_t>(1, total / kMergeBucketPairs);
  unsigned shift = 0;
  while ((span >> shift) + 1 > target) ++shift;
  const std::size_t num_buckets = static_cast<std::size_t>(span >> shift) + 1;
  const auto bucket_of = [a_min, shift](const JoinPair& pair) {
    return static_cast<std::size_t>((std::uint64_t{pair.a} - a_min) >> shift);
  };
  // The count and the scatter run over contiguous row chunks of about
  // equal pair counts, one task each. Slots go out bucket-major, chunk
  // order within a bucket, and each chunk scatters its rows in row
  // order, so every bucket holds its pairs in the serial scatter's
  // order whatever the chunk count.
  const std::size_t num_chunks =
      pool != nullptr && pool->size() > 1
          ? std::min<std::size_t>(num_leaves, 4 * std::size_t{pool->size()})
          : 1;
  std::vector<std::size_t> chunk_rows(num_chunks + 1, num_leaves);
  chunk_rows[0] = 0;
  for (std::size_t i = 0, seen = 0, c = 1; i < num_leaves && c < num_chunks;
       ++i) {
    seen += rows[i].pairs.size();
    if (seen * num_chunks >= c * total) chunk_rows[c++] = i + 1;
  }
  // slot[c * num_buckets + b]: chunk c's count in bucket b, then its
  // first slot there.
  std::vector<std::size_t> slot(num_chunks * num_buckets, 0);
  std::vector<std::size_t> start(num_buckets + 1, 0);
  std::vector<JoinPair> pairs;
  {
    ScopedPhase phase(Phase::kMerge);
    pairs.resize(total);
  }
  pooled_for(num_chunks, [&](std::size_t c) {
    ScopedPhaseCapture worker_capture(phases);
    ScopedPhase phase(Phase::kMerge);
    std::size_t* count = slot.data() + c * num_buckets;
    for (std::size_t i = chunk_rows[c]; i < chunk_rows[c + 1]; ++i) {
      for (const JoinPair& pair : rows[i].pairs) ++count[bucket_of(pair)];
    }
  });
  {
    ScopedPhase phase(Phase::kMerge);
    std::size_t next = 0;
    for (std::size_t b = 0; b < num_buckets; ++b) {
      start[b] = next;
      for (std::size_t c = 0; c < num_chunks; ++c) {
        const std::size_t n = slot[c * num_buckets + b];
        slot[c * num_buckets + b] = next;
        next += n;
      }
    }
    start[num_buckets] = next;
  }
  pooled_for(num_chunks, [&](std::size_t c) {
    ScopedPhaseCapture worker_capture(phases);
    ScopedPhase phase(Phase::kMerge);
    std::size_t* fill = slot.data() + c * num_buckets;
    for (std::size_t i = chunk_rows[c]; i < chunk_rows[c + 1]; ++i) {
      for (const JoinPair& pair : rows[i].pairs) {
        pairs[fill[bucket_of(pair)]++] = pair;
      }
    }
  });
  pooled_for(num_buckets, [&](std::size_t b) {
    ScopedPhaseCapture worker_capture(phases);
    ScopedPhase phase(Phase::kMerge);
    std::sort(pairs.begin() + static_cast<std::ptrdiff_t>(start[b]),
              pairs.begin() + static_cast<std::ptrdiff_t>(start[b + 1]));
  });
  return pairs;
}

std::vector<JoinPair> BruteForceSelfJoin(const PointSet& points,
                                         double epsilon,
                                         const Metric& metric) {
  PARSIM_CHECK(epsilon >= 0.0);
  const std::size_t n = points.size();
  const std::size_t dim = points.dim();
  const double eps_cmp = metric.ToComparable(epsilon);
  std::vector<JoinPair> out;
  if (n < 2) return out;
  // Row-tail one-to-many sweeps instead of n^2/2 pair calls: same
  // values (ComparableMany is bit-identical to Comparable), ~SIMD-rate.
  std::vector<double> dists(n - 1);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    const std::size_t tail = n - i - 1;
    metric.ComparableMany(points[i], points.data() + (i + 1) * dim, tail, dim,
                          dists.data());
    for (std::size_t t = 0; t < tail; ++t) {
      if (dists[t] <= eps_cmp) {
        out.push_back(JoinPair{static_cast<PointId>(i),
                               static_cast<PointId>(i + 1 + t),
                               metric.FromComparable(dists[t])});
      }
    }
  }
  return out;  // (i, j) emitted in lexicographic order already
}

JoinResult ParallelSearchEngine::SelfJoin(double epsilon,
                                          const JoinOptions& options) const {
  PARSIM_CHECK(options_.architecture == Architecture::kSharedTree);
  PARSIM_CHECK(!trees_.empty());
  JoinResult result;
  QueryCostAccumulator acc(disks_.size() + 1);
  PhaseAccumulator phase_acc;
  const bool profile = options.profile_phases;
  const unsigned threads =
      options.threads != 0 ? options.threads : options_.parallel_workers;
  std::shared_ptr<ThreadPool> pool;
  if (threads > 1) pool = EnsurePool(threads);
  const SimilarityJoin join(*trees_[0], options_.metric);
  result.pairs = join.Run(epsilon, &acc, pool.get(),
                          profile ? &phase_acc : nullptr, &result.stats);
  // Counters, pages, fault tags, and simulated times derive from the
  // captured charges exactly as a query's do, so the join's accounting
  // composes with buffering, replicas, and fault plans for free.
  static_cast<QueryStats&>(result.stats) = StatsFromAccumulator(acc);
  if (profile) result.stats.phases = PhaseBreakdown::From(phase_acc);
  MergeAccumulator(acc);
  return result;
}

}  // namespace parsim
