// SQ8-quantized leaf blocks and error-bounded pruning vs the exact path
// they must be indistinguishable from.
//
// The whole quantization PR rests on one inequality — the comparable-
// space lower bound computed from uint8 code reductions never exceeds
// the exact float kernel's comparable distance — and one consequence:
// pruning on the bound is invisible in results, distances, pop
// sequences, and page counts. These properties pin both, across
// adversarial data placements (huge offsets, tiny ranges, data exactly
// on the lattice), all three metrics, every query path (k-NN, ball,
// range, partial match, coalesced batch), and writes. The engine-level
// cases also pin what Build leaves behind and the phase-profiling paths.

#include "src/geometry/sq8.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/near_optimal.h"
#include "src/geometry/metric.h"
#include "src/index/knn.h"
#include "src/index/leaf_sweep.h"
#include "src/index/rstar_tree.h"
#include "src/index/xtree.h"
#include "src/parallel/engine.h"
#include "src/util/phase_timer.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

constexpr MetricKind kAllKinds[] = {MetricKind::kL1, MetricKind::kL2,
                                    MetricKind::kLmax};

/// Same bit-identity contract as the leaf-block suite: distances exact
/// by rank, ids as sets (ties may permute).
void ExpectBitIdentical(const KnnResult& got, const KnnResult& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].distance, want[i].distance) << "rank " << i;
  }
  std::vector<PointId> got_ids, want_ids;
  for (const auto& n : got) got_ids.push_back(n.id);
  for (const auto& n : want) want_ids.push_back(n.id);
  std::sort(got_ids.begin(), got_ids.end());
  std::sort(want_ids.begin(), want_ids.end());
  EXPECT_EQ(got_ids, want_ids);
}

std::vector<NodeId> CollectLeaves(const TreeBase& tree) {
  std::vector<NodeId> leaves;
  if (tree.root_id() == kInvalidNodeId) return leaves;
  std::vector<NodeId> stack{tree.root_id()};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    const Node& node = tree.AccessNode(id);
    if (node.IsLeaf()) {
      leaves.push_back(id);
      continue;
    }
    for (const NodeEntry& e : node.entries) stack.push_back(e.child);
  }
  return leaves;
}

/// Affine-transforms a generated point set: x -> x * spread + offset.
PointSet Transform(const PointSet& in, double spread, double offset) {
  PointSet out(in.dim());
  std::vector<Scalar> row(in.dim());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const PointView p = in[i];
    for (std::size_t d = 0; d < in.dim(); ++d) {
      row[d] = static_cast<Scalar>(static_cast<double>(p[d]) * spread + offset);
    }
    out.Add(PointView{row.data(), row.size()});
  }
  return out;
}

/// Snaps every coordinate onto a 255-level lattice so the quantizer's
/// reconstruction error is ~0 and only the fp guards keep the bound
/// sound (the adversarial case for a purely relative guard).
PointSet SnapToLattice(const PointSet& in, double lo, double step) {
  PointSet out(in.dim());
  std::vector<Scalar> row(in.dim());
  for (std::size_t i = 0; i < in.size(); ++i) {
    const PointView p = in[i];
    for (std::size_t d = 0; d < in.dim(); ++d) {
      const double level = std::floor(static_cast<double>(p[d]) * 255.0);
      row[d] = static_cast<Scalar>(lo + level * step);
    }
    out.Add(PointView{row.data(), row.size()});
  }
  return out;
}

/// The integer reduction the kernels compute, per metric, via the
/// scalar references (their own identity with the SIMD kernels is pinned
/// separately below).
std::uint32_t ReferenceReduction(MetricKind kind, const std::uint8_t* a,
                                 const std::uint8_t* b, std::size_t dim) {
  switch (kind) {
    case MetricKind::kL1:
      return detail::Sq8SadScalar(a, b, dim);
    case MetricKind::kL2:
      return detail::Sq8SsdScalar(a, b, dim);
    case MetricKind::kLmax:
      return detail::Sq8MadScalar(a, b, dim);
  }
  return 0;
}

class QuantizedBlockPropertyTest
    : public ::testing::TestWithParam<std::size_t> {};

// The core soundness property, on adversarially placed data: for every
// (query, point) pair and every metric, the bound computed from the
// integer code reduction never exceeds the exact comparable distance.
TEST_P(QuantizedBlockPropertyTest, LowerBoundNeverExceedsExactComparable) {
  const std::size_t dim = GetParam();
  const PointSet base = GenerateUniform(160, dim, 9001 + dim);
  struct Placement {
    const char* name;
    PointSet points;
  };
  const Placement placements[] = {
      {"unit", Transform(base, 1.0, 0.0)},
      {"offset", Transform(base, 1000.0, -500.0)},
      {"tiny", Transform(base, 1e-5, 0.7)},
      {"lattice", SnapToLattice(base, -500.0, 1000.0 / 255.0)},
  };
  for (const Placement& placement : placements) {
    SCOPED_TRACE(placement.name);
    const PointSet& data = placement.points;
    Sq8Mirror mirror;
    mirror.BuildFrom(data.data(), data.size(), dim);
    ASSERT_EQ(mirror.count, data.size());

    // Queries: block rows themselves (exact distance 0 — the bound must
    // collapse), in-distribution points, and far-outside points whose
    // codes clamp at the lattice edge.
    PointSet queries(dim);
    for (std::size_t i = 0; i < 6; ++i) queries.Add(data[i * 7]);
    const PointSet fresh = GenerateUniformQueries(6, dim, 9103 + dim);
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      queries.Add(Transform(fresh, 1.0, 0.0)[i]);
    }
    for (std::size_t i = 0; i < 4; ++i) {
      queries.Add(Transform(fresh, 2000.0, 1000.0)[i]);
    }

    std::vector<std::uint8_t> qcodes(dim);
    for (const MetricKind kind : kAllKinds) {
      const Metric metric(kind);
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        const Sq8Bound bound =
            PrepareSq8Query(mirror, queries[qi], kind, qcodes.data());
        for (std::size_t i = 0; i < mirror.count; ++i) {
          const std::uint32_t reduction =
              ReferenceReduction(kind, qcodes.data(), mirror.row(i), dim);
          const double lb = bound.LowerBound(reduction);
          const double exact = metric.Comparable(queries[qi], data[i]);
          ASSERT_LE(lb, exact)
              << "metric " << static_cast<int>(kind) << " query " << qi
              << " point " << i;
        }
      }
    }
  }
}

// The dispatched uint8 kernels (AVX2 when available) agree exactly with
// the scalar references, one-to-many and q x n block alike — integer
// arithmetic, so equality is exact by construction and any SIMD lane
// bug shows immediately.
TEST_P(QuantizedBlockPropertyTest, Sq8KernelsMatchScalarReference) {
  const std::size_t dim = GetParam();
  const std::size_t count = 97;   // odd: exercises every tail path
  const std::size_t queries = 5;
  std::mt19937 rng(1234 + static_cast<unsigned>(dim));
  std::uniform_int_distribution<int> byte(0, 255);
  std::vector<std::uint8_t> codes(count * dim), qcodes(queries * dim);
  for (auto& c : codes) c = static_cast<std::uint8_t>(byte(rng));
  for (auto& c : qcodes) c = static_cast<std::uint8_t>(byte(rng));
  // Extremes: an all-0 and an all-255 row force the maximal |diff| the
  // SSD widening must survive (255^2 * dim fits u32 for dim <= 65535).
  std::fill(codes.begin(), codes.begin() + static_cast<std::ptrdiff_t>(dim),
            std::uint8_t{0});
  std::fill(qcodes.begin(), qcodes.begin() + static_cast<std::ptrdiff_t>(dim),
            std::uint8_t{255});

  std::vector<std::uint32_t> many(count), block(queries * count);
  for (const MetricKind kind : kAllKinds) {
    const Metric metric(kind);
    for (std::size_t q = 0; q < queries; ++q) {
      const std::uint8_t* qc = qcodes.data() + q * dim;
      metric.Sq8Many(qc, codes.data(), count, dim, many.data());
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(many[i],
                  ReferenceReduction(kind, qc, codes.data() + i * dim, dim))
            << "metric " << static_cast<int>(kind) << " q " << q << " i " << i;
      }
    }
    metric.Sq8Block(qcodes.data(), queries, codes.data(), count, dim,
                    block.data());
    for (std::size_t q = 0; q < queries; ++q) {
      metric.Sq8Many(qcodes.data() + q * dim, codes.data(), count, dim,
                     many.data());
      for (std::size_t i = 0; i < count; ++i) {
        ASSERT_EQ(block[q * count + i], many[i]);
      }
    }
  }
}

// A quantized tree answers every query kind bit-identically to the
// brute-force oracles (and hence to its own unquantized self, which the
// leaf-block suite pins against the same oracles).
TEST_P(QuantizedBlockPropertyTest, QuantizedTreeMatchesOracles) {
  const std::size_t dim = GetParam();
  const PointSet data = GenerateUniform(800, dim, 9201 + dim);
  const PointSet queries = GenerateUniformQueries(6, dim, 9203 + dim);

  for (const MetricKind kind : kAllKinds) {
    SCOPED_TRACE("metric " + std::to_string(static_cast<int>(kind)));
    const Metric metric(kind);
    SimulatedDisk disk(0);
    XTree tree(dim, &disk);
    tree.set_quantized_leaf_blocks(true);
    ASSERT_TRUE(tree.BulkLoad(data).ok());
    ASSERT_TRUE(tree.quantized_leaf_blocks());

    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      SCOPED_TRACE("query " + std::to_string(qi));
      ExpectBitIdentical(HsKnn(tree, queries[qi], 8, metric),
                         BruteForceKnn(data, queries[qi], 8, metric));
      ExpectBitIdentical(BallQuery(tree, queries[qi], 0.4, metric),
                         BruteForceBallQuery(data, queries[qi], 0.4, metric));
      if (kind == MetricKind::kL2) {
        ExpectBitIdentical(RkvKnn(tree, queries[qi], 8, metric),
                           BruteForceKnn(data, queries[qi], 8, metric));
      }
    }

    const auto expect_matches_scan = [&](const Rect& window) {
      std::vector<PointId> got = tree.RangeQuery(window);
      std::vector<PointId> want;
      for (std::size_t i = 0; i < data.size(); ++i) {
        if (window.Contains(data[i])) want.push_back(static_cast<PointId>(i));
      }
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want);
      EXPECT_FALSE(want.empty());
    };
    {
      std::vector<Scalar> lo(dim, 0.05f), hi(dim, 0.95f);
      expect_matches_scan(Rect(std::move(lo), std::move(hi)));
    }
    {
      // Partial match: every other dimension constrained — the range
      // prefilter must pass unconstrained dims wholesale.
      std::vector<Scalar> lo(dim, 0.0f), hi(dim, 1.0f);
      for (std::size_t d = 0; d < dim; d += 2) {
        lo[d] = 0.15f;
        hi[d] = 0.85f;
      }
      expect_matches_scan(Rect(std::move(lo), std::move(hi)));
    }
  }
}

// Counter conservation between an exact and a quantized engine over the
// same workload, at a small dimension and at d = 16: identical results,
// page counts and frontier traffic; pruned + reranked on the quantized
// side recovers the exact side's distance count; the quantized side
// computes exactly its re-ranked share. QueryStats has no distance
// counter, so distances are read as deltas of the cumulative per-disk
// stats each query merges into.
TEST(QuantizedEngineTest, CountersConserveAgainstExactEngine) {
  // Range-window half-widths keep about 5% of the uniform data inside
  // the window at each dimension.
  const struct {
    std::size_t dim;
    float half_width;
  } kCases[] = {{6, 0.3f}, {16, 0.42f}};
  for (const auto& [dim, half_width] : kCases) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    const std::size_t disks = 8, k = 10;
    const PointSet data = GenerateUniform(2500, dim, 9301);
    const PointSet queries = GenerateUniformQueries(8, dim, 9303);

    EngineOptions options;
    options.architecture = Architecture::kSharedTree;
    options.bulk_load = true;
    ParallelSearchEngine exact(
        dim, std::make_unique<NearOptimalDeclusterer>(dim, disks), options);
    ASSERT_TRUE(exact.Build(data).ok());
    options.quantized_leaf_blocks = true;
    ParallelSearchEngine quant(
        dim, std::make_unique<NearOptimalDeclusterer>(dim, disks), options);
    ASSERT_TRUE(quant.Build(data).ok());

    const auto total_distances = [](const ParallelSearchEngine& engine) {
      std::uint64_t sum = 0;
      for (std::uint32_t d = 0; d < engine.num_disks(); ++d) {
        sum += engine.disks().disk(d).stats().distance_computations;
      }
      return sum;
    };

    std::uint64_t total_pruned = 0;
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      SCOPED_TRACE("query " + std::to_string(qi));
      QueryStats es, qs;
      const std::uint64_t exact_before = total_distances(exact);
      const std::uint64_t quant_before = total_distances(quant);
      ExpectBitIdentical(quant.Query(queries[qi], k, &qs),
                         exact.Query(queries[qi], k, &es));
      const std::uint64_t exact_delta = total_distances(exact) - exact_before;
      const std::uint64_t quant_delta = total_distances(quant) - quant_before;
      // Same traversal: the bound only skips exact kernels, never pages
      // or frontier entries.
      EXPECT_EQ(qs.total_pages, es.total_pages);
      EXPECT_EQ(qs.directory_pages, es.directory_pages);
      EXPECT_EQ(qs.pages_per_disk, es.pages_per_disk);
      EXPECT_EQ(qs.frontier_pushes, es.frontier_pushes);
      EXPECT_EQ(qs.frontier_pops, es.frontier_pops);
      EXPECT_EQ(qs.cutoff_skipped_nodes, es.cutoff_skipped_nodes);
      // Exact engine sweeps every leaf candidate through the float kernel.
      EXPECT_EQ(es.quantized_pruned, 0u);
      EXPECT_EQ(es.reranked, 0u);
      // Quantized engine: every candidate is either pruned or re-ranked...
      EXPECT_EQ(qs.quantized_pruned + qs.reranked, exact_delta);
      EXPECT_EQ(qs.base_pruned + qs.sq8_pruned, qs.quantized_pruned);
      // ...and pays exact kernels only for the re-ranked share.
      EXPECT_EQ(quant_delta, qs.reranked);
      EXPECT_GT(qs.leaf_bytes_scanned, 0u);
      total_pruned += qs.quantized_pruned;
    }
    // The workload must actually exercise pruning, or the suite is
    // vacuous.
    EXPECT_GT(total_pruned, 0u);

    // Range / similarity paths through the engine wrappers.
    std::vector<Scalar> lo(dim, 0.5f - half_width);
    std::vector<Scalar> hi(dim, 0.5f + half_width);
    const Rect window(std::move(lo), std::move(hi));
    QueryStats es, qs;
    std::vector<PointId> er = exact.RangeQuery(window, &es);
    std::vector<PointId> qr = quant.RangeQuery(window, &qs);
    std::sort(er.begin(), er.end());
    std::sort(qr.begin(), qr.end());
    EXPECT_EQ(er, qr);
    EXPECT_FALSE(er.empty());
    EXPECT_EQ(qs.total_pages, es.total_pages);
  }
}

// The coalesced batched path over a quantized engine, at d = 8 and
// d = 16: results match the per-query path bit for bit and the same
// conservation laws hold per query, with the batch's coalesced page
// accounting intact. The batch runs on four pool workers, so this is
// also the sanitizer lanes' probe of the threaded SQ8 sweep.
TEST(QuantizedEngineTest, CoalescedBatchMatchesPerQueryOnQuantizedEngine) {
  for (const std::size_t dim : {8, 16}) {
    SCOPED_TRACE("dim " + std::to_string(dim));
    const std::size_t disks = 8, k = 10;
    const PointSet data = GenerateUniform(3000, dim, 9401);
    const PointSet queries = GenerateUniformQueries(24, dim, 9403);

    EngineOptions options;
    options.architecture = Architecture::kSharedTree;
    options.bulk_load = true;
    options.quantized_leaf_blocks = true;
    ParallelSearchEngine quant(
        dim, std::make_unique<NearOptimalDeclusterer>(dim, disks), options);
    ASSERT_TRUE(quant.Build(data).ok());
    options.coalesced_batch = true;
    options.parallel_workers = 4;
    ParallelSearchEngine batched(
        dim, std::make_unique<NearOptimalDeclusterer>(dim, disks), options);
    ASSERT_TRUE(batched.Build(data).ok());

    std::vector<QueryStats> batch_stats;
    const std::vector<KnnResult> batch =
        batched.QueryBatch(queries, k, &batch_stats);
    ASSERT_EQ(batch.size(), queries.size());
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      SCOPED_TRACE("query " + std::to_string(qi));
      QueryStats qs;
      ExpectBitIdentical(batch[qi], quant.Query(queries[qi], k, &qs));
      const QueryStats& bs = batch_stats[qi];
      // Coalescing removes page charges, never sweep work: each query's
      // prune/re-rank split and frontier traffic match its single-query
      // execution, and the pages it read plus the pages it rode along on
      // recover the single-query page count.
      EXPECT_EQ(bs.quantized_pruned, qs.quantized_pruned);
      EXPECT_EQ(bs.base_pruned, qs.base_pruned);
      EXPECT_EQ(bs.sq8_pruned, qs.sq8_pruned);
      EXPECT_EQ(bs.reranked, qs.reranked);
      EXPECT_EQ(bs.leaf_bytes_scanned, qs.leaf_bytes_scanned);
      EXPECT_EQ(bs.frontier_pops, qs.frontier_pops);
      EXPECT_EQ(bs.cutoff_skipped_nodes, qs.cutoff_skipped_nodes);
      EXPECT_EQ(bs.total_pages + bs.directory_pages + bs.coalesced_reads,
                qs.total_pages + qs.directory_pages);
    }
  }
}

// Build leaves every reachable leaf with its SQ8 mirror, serial and
// pooled alike, without charging a page or a distance computation beyond
// BuildStats (which the mirrors do not move either), and answers stay
// oracle-exact.
TEST(QuantizedEngineTest, BuildLeavesEveryMirrorAndChargesNothing) {
  const std::size_t dim = 16, k = 5;
  const std::uint32_t disks = 4;
  const PointSet data = GenerateUniform(1500, dim, 4701);
  const PointSet queries = GenerateUniformQueries(4, dim, 4703);

  EngineOptions exact_options;
  exact_options.architecture = Architecture::kSharedTree;
  exact_options.bulk_load = true;
  ParallelSearchEngine exact(
      dim, std::make_unique<NearOptimalDeclusterer>(dim, disks),
      exact_options);
  ASSERT_TRUE(exact.Build(data).ok());

  for (const unsigned workers : {0u, 4u}) {
    SCOPED_TRACE("parallel_workers " + std::to_string(workers));
    EngineOptions options = exact_options;
    options.quantized_leaf_blocks = true;
    options.parallel_workers = workers;
    ParallelSearchEngine engine(
        dim, std::make_unique<NearOptimalDeclusterer>(dim, disks), options);
    ASSERT_TRUE(engine.Build(data).ok());
    EXPECT_TRUE(engine.ValidateInvariants().ok());

    // Nothing is charged after BuildStats was taken, and the mirrors
    // add nothing to it.
    const DiskStats charged = engine.disks().TotalStats();
    EXPECT_TRUE(charged == Counters{});
    EXPECT_EQ(charged.TotalPagesRead(), 0u);
    EXPECT_EQ(charged.pages_written, 0u);
    const DiskStats built = engine.BuildStats();
    const DiskStats want = exact.BuildStats();
    EXPECT_TRUE(built == want);
    EXPECT_EQ(built.TotalPagesRead(), want.TotalPagesRead());
    EXPECT_EQ(built.pages_written, want.pages_written);

    // Every reachable leaf holds its mirror.
    const TreeBase& tree = engine.tree();
    std::vector<NodeId> stack{tree.root_id()};
    std::size_t leaves = 0;
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      const Node& node = tree.PeekNode(id);
      if (!node.IsLeaf()) {
        for (const NodeEntry& e : node.entries) stack.push_back(e.child);
        continue;
      }
      ++leaves;
      EXPECT_TRUE(node.block.has_sq8);
      EXPECT_EQ(node.block.sq8.count, node.block.count);
      EXPECT_EQ(node.block.count, node.entries.size());
    }
    EXPECT_GT(leaves, 0u);

    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      ExpectBitIdentical(engine.Query(queries[qi], k),
                         BruteForceKnn(data, queries[qi], k, options.metric));
    }
  }
}

// Phase-attributed profiling: off by default (all-zero breakdown, no
// accounting drift), populated when enabled, and summed across the
// batch paths.
TEST(QuantizedEngineTest, PhaseProfilerAttributesQueryTime) {
  const std::size_t dim = 16, k = 10;
  const std::uint32_t disks = 4;
  const PointSet data = GenerateUniform(2500, dim, 4801);
  const PointSet queries = GenerateUniformQueries(6, dim, 4803);

  EngineOptions options;
  options.architecture = Architecture::kSharedTree;
  options.bulk_load = true;
  options.quantized_leaf_blocks = true;
  ParallelSearchEngine plain(
      dim, std::make_unique<NearOptimalDeclusterer>(dim, disks), options);
  ASSERT_TRUE(plain.Build(data).ok());
  options.profile_phases = true;
  ParallelSearchEngine profiled(
      dim, std::make_unique<NearOptimalDeclusterer>(dim, disks), options);
  ASSERT_TRUE(profiled.Build(data).ok());

  QueryStats off_stats, on_stats;
  const KnnResult want = plain.Query(queries[0], k, &off_stats);
  ExpectBitIdentical(profiled.Query(queries[0], k, &on_stats), want);
  EXPECT_EQ(off_stats.phases.total_ms(), 0.0);
  EXPECT_GT(on_stats.phases.total_ms(), 0.0);
  // A quantized k-NN query must spend time descending, popping the
  // frontier, and sweeping leaves.
  EXPECT_GT(on_stats.phases.of(Phase::kDescent) +
                on_stats.phases.of(Phase::kFrontier),
            0.0);
  EXPECT_GT(on_stats.phases.of(Phase::kSweepPrep) +
                on_stats.phases.of(Phase::kSweepFull) +
                on_stats.phases.of(Phase::kSweepRerank),
            0.0);
  // Simulated accounting is independent of the profiler.
  EXPECT_EQ(on_stats.total_pages, off_stats.total_pages);
  EXPECT_EQ(on_stats.quantized_pruned, off_stats.quantized_pruned);

  // Per-query batch path: the batch breakdown is the per-query sum.
  PhaseBreakdown batch_phases;
  std::vector<QueryStats> stats;
  (void)profiled.QueryBatch(queries, k, &stats, /*threads=*/1,
                            /*effective_threads=*/nullptr, &batch_phases);
  EXPECT_GT(batch_phases.total_ms(), 0.0);
  double per_query_sum = 0.0;
  for (const QueryStats& s : stats) per_query_sum += s.phases.total_ms();
  EXPECT_DOUBLE_EQ(batch_phases.total_ms(), per_query_sum);

  // Coalesced threaded path: batch-level breakdown only, still nonzero,
  // results still bit-identical.
  EngineOptions co = options;
  co.coalesced_batch = true;
  co.parallel_workers = 4;
  ParallelSearchEngine co_engine(
      dim, std::make_unique<NearOptimalDeclusterer>(dim, disks), co);
  ASSERT_TRUE(co_engine.Build(data).ok());
  PhaseBreakdown co_phases;
  const std::vector<KnnResult> batch = co_engine.QueryBatch(
      queries, k, nullptr, /*threads=*/4, nullptr, &co_phases);
  EXPECT_GT(co_phases.total_ms(), 0.0);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    ExpectBitIdentical(batch[qi], plain.Query(queries[qi], k));
  }
}

// Writes rebuild the SQ8 mirror together with the block: after an
// insert or delete every mirror encodes the current floats (within its
// recorded error), and queries stay oracle-exact. Toggling quantization
// off rebuilds plain blocks.
TEST_P(QuantizedBlockPropertyTest, MutationEpochsInvalidateMirrors) {
  const std::size_t dim = GetParam();
  PointSet data = GenerateUniform(400, dim, 9501 + dim);
  SimulatedDisk disk(0);
  RStarTree tree(dim, &disk);
  tree.set_quantized_leaf_blocks(true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data[i], static_cast<PointId>(i)).ok());
  }
  for (const NodeId leaf_id : CollectLeaves(tree)) {
    ASSERT_TRUE(tree.PeekNode(leaf_id).block.has_sq8);
  }

  const Point probe(std::vector<Scalar>(dim, 0.5f));
  const PointId extra_id = 100000;
  ASSERT_TRUE(tree.Insert(probe, extra_id).ok());
  KnnResult nearest = HsKnn(tree, probe, 1);
  ASSERT_EQ(nearest.size(), 1u);
  EXPECT_EQ(nearest[0].id, extra_id);
  EXPECT_EQ(nearest[0].distance, 0.0);

  ASSERT_TRUE(tree.Delete(probe, extra_id).ok());
  nearest = HsKnn(tree, probe, 1);
  ASSERT_EQ(nearest.size(), 1u);
  EXPECT_NE(nearest[0].id, extra_id);

  // Every mirror encodes the leaf's current floats within err.
  for (const NodeId leaf_id : CollectLeaves(tree)) {
    const LeafBlock& block = tree.PeekNode(leaf_id).block;
    ASSERT_TRUE(block.has_sq8);
    ASSERT_EQ(block.sq8.count, block.count);
    for (std::size_t i = 0; i < block.count; ++i) {
      for (std::size_t d = 0; d < dim; ++d) {
        const double v = static_cast<double>(block.coords[i * dim + d]);
        const double recon = block.sq8.Recon(block.sq8.row(i)[d], d);
        ASSERT_LE(std::abs(v - recon), block.sq8.err[d])
            << "leaf " << leaf_id << " point " << i << " dim " << d;
      }
    }
  }

  // Quantized answers still match the oracle after the mutations...
  const PointSet queries = GenerateUniformQueries(3, dim, 9503 + dim);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    ExpectBitIdentical(HsKnn(tree, queries[qi], 8),
                       BruteForceKnn(data, queries[qi], 8));
  }
  // ...and toggling off rebuilds plain blocks with identical answers.
  tree.set_quantized_leaf_blocks(false);
  EXPECT_FALSE(tree.quantized_leaf_blocks());
  for (const NodeId leaf_id : CollectLeaves(tree)) {
    EXPECT_FALSE(tree.PeekNode(leaf_id).block.has_sq8);
  }
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    ExpectBitIdentical(HsKnn(tree, queries[qi], 8),
                       BruteForceKnn(data, queries[qi], 8));
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, QuantizedBlockPropertyTest,
                         ::testing::Values(2, 3, 4, 6, 8, 11, 13, 16, 24, 32),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace parsim
