#include "src/parallel/join.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
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

/// Per-row-task output, merged serially in row order after the parallel
/// sweep so every counter and the pair list are thread-count invariant.
struct RowOutput {
  LeafSweepStats sweep;
  std::vector<JoinPair> pairs;
  std::uint64_t kernels = 0;
};

void AddSweep(LeafSweepStats* into, const LeafSweepStats& s) {
  into->exact_distances += s.exact_distances;
  into->quantized_pruned += s.quantized_pruned;
  into->base_pruned += s.base_pruned;
  into->sq8_pruned += s.sq8_pruned;
  into->reranked += s.reranked;
  into->approx_pruned_exactly += s.approx_pruned_exactly;
  into->leaf_bytes_scanned += s.leaf_bytes_scanned;
}

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
  LeafSweepStats sweep;
  // Survivors accumulate into ONE flat batch of absolute codebook rows
  // (CollectSurvivors writes straight into it, then a single pass
  // rebases the run-relative indices) plus one (query row, count) group
  // per surviving query row — no per-survivor bookkeeping sits between
  // the integer kernels, and the rerank pass walks a dense array.
  struct RerankGroup {
    std::uint32_t g;
    std::uint32_t count;
  };
  thread_local std::vector<std::uint32_t> reductions;
  thread_local std::vector<std::uint32_t> rerank_rows;
  thread_local std::vector<RerankGroup> rerank_groups;
  rerank_groups.clear();
  std::size_t rerank_n = 0;
  const std::uint8_t* codes = pc.mirror.codes.data();
  std::uint64_t streamed = 0;
  const auto collect_row = [&](const std::uint32_t* row, std::size_t width,
                               std::size_t r, std::size_t row_begin) {
    const double dcut = qv.cutoffs[r];
    if (dcut < 0.0) {
      sweep.base_pruned += width;
      return;
    }
    const std::uint32_t cutoff = detail::IntCutoff(dcut);
    detail::GrowTo(rerank_rows, rerank_n + width);
    std::uint32_t* dst = rerank_rows.data() + rerank_n;
    const std::size_t nsurv = detail::CollectSurvivors(row, width, cutoff, dst);
    sweep.sq8_pruned += width - nsurv;
    if (nsurv == 0) return;
    for (std::size_t s = 0; s < nsurv; ++s) {
      dst[s] += static_cast<std::uint32_t>(row_begin);
    }
    rerank_groups.push_back(RerankGroup{static_cast<std::uint32_t>(r),
                                        static_cast<std::uint32_t>(nsurv)});
    rerank_n += nsurv;
  };
  {
    ScopedPhase phase(Phase::kSweepFull);
    if (tail && end == qv.qrow0 + nq) {
      // Pure self pair: the symmetric kernel fills the strict upper
      // triangle only, each entry bit-identical to Sq8Block's.
      detail::GrowTo(reductions, nq * nq);
      metric.Sq8BlockSelf(qv.codes, codes + qv.qrow0 * dim, nq, dim,
                          reductions.data());
      for (std::size_t r = 0; r + 1 < nq; ++r) {
        const std::size_t width = nq - r - 1;
        streamed += width;  // the triangle kernel streamed every row
        collect_row(reductions.data() + r * nq + r + 1, width, r,
                    qv.qrow0 + r + 1);
      }
    } else {
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
        // flat batch — same set CollectSurvivors would pick from an
        // Sq8Many pass, without storing the reduction stream.
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
  sweep.exact_distances = sweep.reranked;
  sweep.leaf_bytes_scanned =
      streamed * dim + sweep.reranked * dim * sizeof(Scalar);
  AddSweep(&out->sweep, sweep);
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
  // Row i owns every surviving pair (i, j), j >= i — Özkural &
  // Aykanat's 1-D owner-computes decomposition: each pair is swept by
  // exactly one row task.
  std::vector<std::vector<std::uint32_t>> row_pairs(num_leaves);
  std::uint64_t swept = 0;
  {
    ScopedPhase phase(Phase::kDescent);
    for (std::uint32_t i = 0; i < num_leaves; ++i) {
      row_pairs[i].push_back(i);
      ++swept;
    }
    const std::size_t num_parents = parents.size();
    for (std::size_t p = 0; p < num_parents; ++p) {
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
            row_pairs[std::min(li, lj)].push_back(std::max(li, lj));
            ++swept;
          }
        }
      }
    }
    for (std::vector<std::uint32_t>& row : row_pairs) {
      std::sort(row.begin(), row.end());
    }
  }
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
      leaf.node = &tree_.AccessNode(leaf.id);
      leaf.route = tree_.ResolveRoute(*leaf.node);
    }
  }
  for (const JoinLeaf& leaf : leaves) {
    PARSIM_CHECK(leaf.touches >= 1);
    const std::uint64_t extra = leaf.touches - 1;
    if (extra == 0) continue;
    const std::uint64_t pages = extra * leaf.node->pages;
    DiskStats& s = acc->slot(leaf.route.disk->id());
    s.coalesced_pages += pages;
    if (leaf.route.failover) s.replica_pages_read += pages;
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
  {
    bool quantized = false;
    for (const JoinLeaf& leaf : leaves) {
      if (leaf.node->entries.empty()) continue;
      quantized = tree_.LeafBlockOf(*leaf.node).has_sq8;
      break;
    }
    if (quantized) {
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
          const LeafBlock& b = tree_.LeafBlockOf(*leaf.node);
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
      if (pool != nullptr && pool->size() > 1) {
        pool->ParallelFor(0, codebooks.size(), build_group);
      } else {
        for (std::size_t g = 0; g < codebooks.size(); ++g) build_group(g);
      }
    }
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
    const LeafBlock& bi = tree_.LeafBlockOf(node_i);
    thread_local std::vector<LeafSweepStats> member_stats;
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
        out.kernels += t2 - t;
        t = t2;
        continue;
      }
      if (j == i) {
        const LeafSweepStats s = SweepLeafBlockSelf(
            bi, metric_, eps_cmp,
            [&](std::size_t li, std::size_t lj, double cmp) {
              if (cmp <= eps_cmp) {
                PointId a = bi.ids[li];
                PointId b = bi.ids[lj];
                if (a > b) std::swap(a, b);
                out.pairs.push_back(
                    JoinPair{a, b, metric_.FromComparable(cmp)});
              }
            });
        AddSweep(&out.sweep, s);
        ++out.kernels;
        ++t;
        continue;
      }
      const Node& node_j = *leaves[j].node;
      if (node_j.entries.empty()) {
        ++t;
        continue;
      }
      const LeafBlock& bj = tree_.LeafBlockOf(node_j);
      // Cross pair: the owner row's points are the "queries" swept
      // against block j — one many-to-many kernel, SQ8 prune and all,
      // with the join's fixed threshold (it never tightens, unlike a
      // k-NN heap bound).
      member_stats.assign(bi.count, LeafSweepStats{});
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
      for (const LeafSweepStats& ms : member_stats) AddSweep(&out.sweep, ms);
      ++out.kernels;
      ++t;
    }
  };
  if (pool != nullptr && pool->size() > 1) {
    pool->ParallelFor(0, num_leaves, run_row);
  } else {
    for (std::size_t slot = 0; slot < num_leaves; ++slot) run_row(slot);
  }

  // ---- Merge: serial, in row order. Sweep CPU and counters are
  // charged to the disk owning the row's leaf (owner-computes: the
  // compute sits next to the data it swept), one block-kernel
  // invocation per swept pair.
  std::vector<JoinPair> pairs;
  {
    std::size_t total = 0;
    for (const RowOutput& out : rows) total += out.pairs.size();
    pairs.reserve(total);
  }
  for (std::size_t i = 0; i < num_leaves; ++i) {
    const RowOutput& out = rows[i];
    DiskStats& s = acc->slot(leaves[i].route.disk->id());
    s.distance_computations += out.sweep.exact_distances;
    s.quantized_pruned += out.sweep.quantized_pruned;
    s.base_pruned += out.sweep.base_pruned;
    s.sq8_pruned += out.sweep.sq8_pruned;
    s.reranked += out.sweep.reranked;
    s.leaf_bytes_scanned += out.sweep.leaf_bytes_scanned;
    s.block_kernel_invocations += out.kernels;
    pairs.insert(pairs.end(), out.pairs.begin(), out.pairs.end());
    stats->exact_distances += out.sweep.exact_distances;
    stats->quantized_pruned += out.sweep.quantized_pruned;
    stats->base_pruned += out.sweep.base_pruned;
    stats->sq8_pruned += out.sweep.sq8_pruned;
    stats->reranked += out.sweep.reranked;
    stats->leaf_bytes_scanned += out.sweep.leaf_bytes_scanned;
    stats->block_kernel_invocations += out.kernels;
  }
  std::sort(pairs.begin(), pairs.end());
  stats->pairs_emitted = pairs.size();
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
  const bool profile = options_.profile_phases || options.profile_phases;
  const unsigned threads =
      options.threads != 0 ? options.threads : options_.parallel_workers;
  std::shared_ptr<ThreadPool> pool;
  if (threads > 1) pool = EnsurePool(threads);
  const SimilarityJoin join(*trees_[0], options_.metric);
  result.pairs = join.Run(epsilon, &acc, pool.get(),
                          profile ? &phase_acc : nullptr, &result.stats);
  // Pages, fault tags, and simulated times derive from the captured
  // charges exactly as a query's do, so the join's accounting composes
  // with buffering, replicas, and fault plans for free.
  const QueryStats qs = StatsFromAccumulator(acc);
  JoinStats& js = result.stats;
  js.total_pages = qs.total_pages;
  js.directory_pages = qs.directory_pages;
  js.max_pages = qs.max_pages;
  js.buffer_hit_pages = qs.buffer_hit_pages;
  js.coalesced_reads = qs.coalesced_reads;
  js.replica_pages = qs.replica_pages;
  js.failed_read_attempts = qs.failed_read_attempts;
  js.unavailable_pages = qs.unavailable_pages;
  js.degraded = qs.degraded;
  js.parallel_ms = qs.parallel_ms;
  js.sum_ms = qs.sum_ms;
  js.balance = qs.balance;
  if (profile) js.phases = PhaseBreakdown::From(phase_acc);
  MergeAccumulator(acc);
  return result;
}

}  // namespace parsim
