// All-pairs ε-similarity self-join (ParallelSearchEngine::SelfJoin) vs
// the O(n^2) linear-scan oracle: exact pair sets across dimensions,
// metrics, engine configurations (exact / quantized) and an
// epsilon grid including 0 and values straddling a planted pair's
// distance; determinism of results AND stats across thread counts; and
// composition with fault plans, replicas, and the buffer pool, with the
// page-conservation invariant under leader-pays coalescing.

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/parsim/parsim.h"

namespace parsim {
namespace {

enum class SweepMode { kExact, kQuantized };

const char* ModeName(SweepMode mode) {
  switch (mode) {
    case SweepMode::kExact:
      return "exact";
    case SweepMode::kQuantized:
      return "quantized";
  }
  return "?";
}

std::unique_ptr<ParallelSearchEngine> MakeEngine(
    const PointSet& data, std::uint32_t disks, SweepMode mode,
    MetricKind metric = MetricKind::kL2, unsigned workers = 0,
    std::uint64_t buffer_pages = 0, bool replicas = false) {
  EngineOptions options;
  options.architecture = Architecture::kSharedTree;
  options.bulk_load = true;
  options.metric = Metric(metric);
  options.parallel_workers = workers;
  options.buffer_pages_per_disk = buffer_pages;
  options.enable_replicas = replicas;
  options.quantized_leaf_blocks = mode == SweepMode::kQuantized;
  auto engine = std::make_unique<ParallelSearchEngine>(
      data.dim(), std::make_unique<NearOptimalDeclusterer>(data.dim(), disks),
      options);
  EXPECT_TRUE(engine->Build(data).ok());
  return engine;
}

void ExpectSamePairs(const std::vector<JoinPair>& expected,
                     const std::vector<JoinPair>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(expected[i].a, actual[i].a) << "pair " << i;
    EXPECT_EQ(expected[i].b, actual[i].b) << "pair " << i;
    EXPECT_EQ(expected[i].distance, actual[i].distance) << "pair " << i;
  }
}

void ExpectSameStats(const JoinStats& a, const JoinStats& b) {
  EXPECT_EQ(Counters(a), Counters(b));
  EXPECT_EQ(a.leaf_blocks, b.leaf_blocks);
  EXPECT_EQ(a.block_pairs_considered, b.block_pairs_considered);
  EXPECT_EQ(a.block_pairs_pruned, b.block_pairs_pruned);
  EXPECT_EQ(a.block_pairs_swept, b.block_pairs_swept);
  EXPECT_EQ(a.pairs_emitted, b.pairs_emitted);
  EXPECT_EQ(a.total_pages, b.total_pages);
  EXPECT_EQ(a.directory_pages, b.directory_pages);
  EXPECT_EQ(a.max_pages, b.max_pages);
  EXPECT_EQ(a.pages_per_disk, b.pages_per_disk);
  EXPECT_EQ(a.degraded, b.degraded);
  // Simulated times are derived from the counters, so they must match
  // bit for bit too.
  EXPECT_EQ(a.parallel_ms, b.parallel_ms);
  EXPECT_EQ(a.healthy_parallel_ms, b.healthy_parallel_ms);
  EXPECT_EQ(a.sum_ms, b.sum_ms);
  EXPECT_EQ(a.balance, b.balance);
}

// The structural invariants every healthy join run must satisfy,
// whatever the configuration.
void ExpectJoinInvariants(const JoinStats& s) {
  const std::uint64_t n = s.leaf_blocks;
  EXPECT_EQ(s.block_pairs_considered, n * (n + 1) / 2);
  EXPECT_EQ(s.block_pairs_swept + s.block_pairs_pruned,
            s.block_pairs_considered);
  // Self pairs have MINDIST 0 and are always swept.
  EXPECT_GE(s.block_pairs_swept, n);
  EXPECT_EQ(s.quantized_pruned, s.base_pruned + s.sq8_pruned);
}

// Page conservation on a healthy engine: leaves are one page each and
// every distinct leaf is fetched exactly once (every leaf is in its own
// surviving self pair), while every ADDITIONAL pair-touch of a leaf
// books a coalesced read. Cross pairs touch two leaves, self pairs one,
// so the spared touches are 2 * (swept - leaf_blocks).
void ExpectPageConservation(const JoinStats& s) {
  EXPECT_EQ(s.total_pages + s.buffer_hit_pages, s.leaf_blocks);
  EXPECT_EQ(s.coalesced_reads,
            2 * (s.block_pairs_swept - s.leaf_blocks));
  EXPECT_EQ(s.replica_pages, 0u);
  EXPECT_EQ(s.unavailable_pages, 0u);
  EXPECT_FALSE(s.degraded);
}

TEST(SimilarityJoinTest, MatchesOracleAcrossDimsAndSweepModes) {
  for (const std::size_t dim : {2ul, 3ul, 4ul, 8ul, 16ul}) {
    const PointSet data =
        GenerateClusteredGaussian(1500, dim, 8, 0.05, 4101 + dim);
    // Calibrate epsilon per dimension so the join is neither empty nor
    // quadratic: distances grow with sqrt(dim).
    const double eps = 0.03 * std::sqrt(static_cast<double>(dim));
    const std::vector<JoinPair> oracle = BruteForceSelfJoin(data, eps);
    for (const SweepMode mode : {SweepMode::kExact, SweepMode::kQuantized}) {
      SCOPED_TRACE("dim " + std::to_string(dim) + " mode " + ModeName(mode));
      const auto engine = MakeEngine(data, 8, mode);
      const JoinResult result = engine->SelfJoin(eps);
      ExpectSamePairs(oracle, result.pairs);
      ExpectJoinInvariants(result.stats);
      ExpectPageConservation(result.stats);
      EXPECT_EQ(result.stats.pairs_emitted, oracle.size());
      EXPECT_GT(result.stats.directory_pages, 0u);
    }
  }
}

TEST(SimilarityJoinTest, MatchesOracleAcrossMetrics) {
  const PointSet data = GenerateClusteredGaussian(1200, 6, 6, 0.05, 4301);
  for (const MetricKind kind :
       {MetricKind::kL1, MetricKind::kL2, MetricKind::kLmax}) {
    const Metric metric(kind);
    // L1 distances are larger, Lmax smaller, than L2 at the same scale.
    const double eps = kind == MetricKind::kL1   ? 0.15
                       : kind == MetricKind::kL2 ? 0.08
                                                 : 0.05;
    const std::vector<JoinPair> oracle = BruteForceSelfJoin(data, eps, metric);
    EXPECT_FALSE(oracle.empty());
    for (const SweepMode mode : {SweepMode::kExact, SweepMode::kQuantized}) {
      SCOPED_TRACE(std::string("metric ") + MetricKindToString(kind) +
                   " mode " + ModeName(mode));
      const auto engine = MakeEngine(data, 8, mode, kind);
      const JoinResult result = engine->SelfJoin(eps);
      ExpectSamePairs(oracle, result.pairs);
      ExpectJoinInvariants(result.stats);
      ExpectPageConservation(result.stats);
    }
  }
}

TEST(SimilarityJoinTest, EpsilonEdgeCasesIncludingPlantedPair) {
  const std::size_t dim = 4;
  PointSet data = GenerateUniform(800, dim, 4501);
  // Plant a pair at a known, isolated distance: copy point 0 and push it
  // delta away along the first axis.
  const double delta = 1e-4;
  Point twin(dim);
  for (std::size_t d = 0; d < dim; ++d) twin[d] = data[0][d];
  twin[0] = static_cast<Scalar>(twin[0] < 0.5 ? twin[0] + delta
                                              : twin[0] - delta);
  data.Add(twin);
  // The planted distance as the engine computes it (float coordinates).
  const Metric metric;
  const double planted =
      metric.FromComparable(metric.Comparable(data[0], data[data.size() - 1]));
  ASSERT_GT(planted, 0.0);

  for (const double eps :
       {0.0, planted * 0.5, planted * (1.0 - 1e-6), planted,
        planted * (1.0 + 1e-6), planted * 4.0}) {
    SCOPED_TRACE("eps " + std::to_string(eps));
    const std::vector<JoinPair> oracle = BruteForceSelfJoin(data, eps);
    for (const SweepMode mode : {SweepMode::kExact, SweepMode::kQuantized}) {
      const auto engine = MakeEngine(data, 4, mode);
      const JoinResult result = engine->SelfJoin(eps);
      ExpectSamePairs(oracle, result.pairs);
      ExpectJoinInvariants(result.stats);
    }
    // The threshold is inclusive: at eps == planted the pair is present.
    const bool has_planted =
        std::any_of(oracle.begin(), oracle.end(), [&](const JoinPair& p) {
          return p.a == 0 && p.b == data.size() - 1;
        });
    if (eps >= planted) {
      EXPECT_TRUE(has_planted);
    } else if (eps < planted * 0.9) {
      EXPECT_FALSE(has_planted);
    }
  }
}

TEST(SimilarityJoinTest, EpsilonZeroEmitsOnlyDuplicates) {
  PointSet data = GenerateUniform(500, 3, 4701);
  // Exact duplicate rows: distance 0 pairs must survive eps = 0.
  data.Add(data[7]);
  data.Add(data[42]);
  const std::vector<JoinPair> oracle = BruteForceSelfJoin(data, 0.0);
  ASSERT_GE(oracle.size(), 2u);
  for (const JoinPair& p : oracle) {
    EXPECT_EQ(p.distance, 0.0);
  }
  for (const SweepMode mode : {SweepMode::kExact, SweepMode::kQuantized}) {
    SCOPED_TRACE(ModeName(mode));
    const auto engine = MakeEngine(data, 4, mode);
    const JoinResult result = engine->SelfJoin(0.0);
    ExpectSamePairs(oracle, result.pairs);
  }
}

TEST(SimilarityJoinTest, DeterministicAcrossThreadCounts) {
  const PointSet data = GenerateClusteredGaussian(4000, 8, 10, 0.05, 4901);
  const double eps = 0.08;
  for (const SweepMode mode : {SweepMode::kExact, SweepMode::kQuantized}) {
    SCOPED_TRACE(ModeName(mode));
    // Serial engine as the reference.
    const auto serial_engine = MakeEngine(data, 8, mode);
    const JoinResult reference = serial_engine->SelfJoin(eps);
    ExpectJoinInvariants(reference.stats);
    for (const unsigned threads : {1u, 2u, 8u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      const auto engine = MakeEngine(data, 8, mode, MetricKind::kL2, threads);
      JoinOptions options;
      options.threads = threads;
      const JoinResult result = engine->SelfJoin(eps, options);
      ExpectSamePairs(reference.pairs, result.pairs);
      ExpectSameStats(reference.stats, result.stats);
    }
  }
}

// Level-1 directory nodes of `tree`: the join's block-pair prune runs
// one task per such parent.
std::size_t LevelOneParents(const TreeBase& tree) {
  std::size_t parents = 0;
  std::vector<NodeId> stack = {tree.root_id()};
  while (!stack.empty()) {
    const Node& node = tree.PeekNode(stack.back());
    stack.pop_back();
    if (node.level == 1) {
      ++parents;
    } else if (!node.IsLeaf()) {
      for (const NodeEntry& e : node.entries) stack.push_back(e.child);
    }
  }
  return parents;
}

// The pooled stages fan out only when they have more tasks than lanes:
// this join has at least 2 x (threads + 1) level-1 parents for every
// pool width below (one prune task each) and enough pairs for several
// merge buckets (one sort task each). Its pair list must equal the
// oracle's, and its pair list and every counter the serial run's, at
// every width. Widths run in ascending order, so each one grows the
// engine's shared pool to exactly that many workers.
TEST(SimilarityJoinTest, PooledStagesMatchSerialAndOracleAtScale) {
  const PointSet data = GenerateClusteredGaussian(6000, 32, 12, 0.03, 6101);
  const double eps = 0.18;
  const std::vector<JoinPair> oracle = BruteForceSelfJoin(data, eps);
  ASSERT_GE(oracle.size(), 16384u);
  for (const SweepMode mode : {SweepMode::kExact, SweepMode::kQuantized}) {
    SCOPED_TRACE(ModeName(mode));
    const auto engine = MakeEngine(data, 8, mode);
    ASSERT_GE(LevelOneParents(engine->tree()), 2u * (8 + 1));
    JoinOptions serial_options;
    serial_options.threads = 1;
    const JoinResult serial = engine->SelfJoin(eps, serial_options);
    ExpectSamePairs(oracle, serial.pairs);
    ExpectJoinInvariants(serial.stats);
    ExpectPageConservation(serial.stats);
    EXPECT_GT(serial.stats.block_pairs_pruned, 0u);
    for (const unsigned threads : {2u, 3u, 8u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      JoinOptions options;
      options.threads = threads;
      const JoinResult result = engine->SelfJoin(eps, options);
      ExpectSamePairs(oracle, result.pairs);
      ExpectSameStats(serial.stats, result.stats);
    }
  }
}

// The merge buckets pairs by their smaller id, so an engine filled by
// Insert with sparse ids reaching both ends of the PointId range (0 and
// kInvalidPointId - 1; kInvalidPointId itself is reserved) must still
// return the oracle's pairs, relabelled, at every pool width.
TEST(SimilarityJoinTest, SparseIdsSpanningThePointIdRange) {
  const std::size_t dim = 8;
  PointSet data = GenerateClusteredGaussian(4000, dim, 8, 0.03, 6301);
  // Two copies of point 0 pair with it and with each other at distance
  // 0, so the smallest id (on point 0) and the two largest (on the
  // copies) all land in pairs.
  data.Add(data[0]);
  data.Add(data[0]);
  const std::size_t n = data.size();
  std::vector<PointId> ids(n);
  ids[0] = 0;
  ids[n - 2] = kInvalidPointId - 2;
  ids[n - 1] = kInvalidPointId - 1;
  std::set<PointId> used(ids.begin(), ids.end());
  Rng rng(6303);
  for (std::size_t i = 1; i + 2 < n; ++i) {
    do {
      ids[i] = static_cast<PointId>(rng.NextBounded(kInvalidPointId));
    } while (!used.insert(ids[i]).second);
  }
  const double eps = 0.07;
  std::vector<JoinPair> expected;
  for (const JoinPair& p : BruteForceSelfJoin(data, eps)) {
    expected.push_back(JoinPair{std::min(ids[p.a], ids[p.b]),
                                std::max(ids[p.a], ids[p.b]), p.distance});
  }
  std::sort(expected.begin(), expected.end());
  ASSERT_GE(expected.size(), 16384u);
  ASSERT_EQ(expected.front().a, 0u);
  ASSERT_EQ(expected.back().a, kInvalidPointId - 2);
  ASSERT_EQ(expected.back().b, kInvalidPointId - 1);

  for (const SweepMode mode : {SweepMode::kExact, SweepMode::kQuantized}) {
    SCOPED_TRACE(ModeName(mode));
    EngineOptions options;
    options.architecture = Architecture::kSharedTree;
    options.quantized_leaf_blocks = mode == SweepMode::kQuantized;
    ParallelSearchEngine engine(
        dim, std::make_unique<NearOptimalDeclusterer>(dim, 8), options);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(engine.Insert(data[i], ids[i]).ok());
    }
    JoinStats serial_stats;
    for (const unsigned threads : {1u, 2u, 3u, 8u}) {
      SCOPED_TRACE("threads " + std::to_string(threads));
      JoinOptions join_options;
      join_options.threads = threads;
      const JoinResult result = engine.SelfJoin(eps, join_options);
      ExpectSamePairs(expected, result.pairs);
      ExpectJoinInvariants(result.stats);
      if (threads == 1) {
        serial_stats = result.stats;
      } else {
        ExpectSameStats(serial_stats, result.stats);
      }
    }
  }
}

TEST(SimilarityJoinTest, ComposesWithBufferPool) {
  const PointSet data = GenerateClusteredGaussian(3000, 6, 8, 0.05, 5101);
  const double eps = 0.07;
  const auto plain = MakeEngine(data, 8, SweepMode::kQuantized);
  const std::vector<JoinPair> expected = plain->SelfJoin(eps).pairs;

  const auto buffered = MakeEngine(data, 8, SweepMode::kQuantized,
                                   MetricKind::kL2, 0, /*buffer_pages=*/4096);
  const JoinResult cold = buffered->SelfJoin(eps);
  ExpectSamePairs(expected, cold.pairs);
  // Cold run: everything read from disk, nothing in the buffer yet.
  EXPECT_EQ(cold.stats.total_pages, cold.stats.leaf_blocks);
  EXPECT_EQ(cold.stats.buffer_hit_pages, 0u);
  ExpectPageConservation(cold.stats);

  const JoinResult warm = buffered->SelfJoin(eps);
  ExpectSamePairs(expected, warm.pairs);
  // Warm run: same pair set, same sweep work, but the fetches are served
  // from the buffer. buffer_hit_pages covers host directory hits too
  // (same semantics as QueryStats), so conservation reads: every page
  // touch — data or directory, buffered or not — is accounted once.
  EXPECT_EQ(warm.stats.total_pages + warm.stats.buffer_hit_pages +
                warm.stats.directory_pages,
            warm.stats.leaf_blocks + cold.stats.directory_pages);
  EXPECT_GT(warm.stats.buffer_hit_pages, 0u);
  EXPECT_LT(warm.stats.total_pages, cold.stats.total_pages);
  EXPECT_EQ(warm.stats.coalesced_reads, cold.stats.coalesced_reads);
  EXPECT_EQ(warm.stats.pairs_emitted, cold.stats.pairs_emitted);
}

TEST(SimilarityJoinTest, ComposesWithFaultPlanAndReplicas) {
  const PointSet data = GenerateClusteredGaussian(3000, 6, 8, 0.05, 5301);
  const double eps = 0.07;
  const auto engine = MakeEngine(data, 8, SweepMode::kQuantized,
                                 MetricKind::kL2, 0, 0, /*replicas=*/true);
  const JoinResult healthy = engine->SelfJoin(eps);
  ExpectPageConservation(healthy.stats);

  FaultPlan plan(8);
  plan.FailDisk(2);
  engine->SetFaultPlan(plan);
  const JoinResult degraded = engine->SelfJoin(eps);
  engine->ClearFaults();

  // The answer is unaffected by the failure; only the routing changes.
  ExpectSamePairs(healthy.pairs, degraded.pairs);
  EXPECT_TRUE(degraded.stats.degraded);
  EXPECT_GT(degraded.stats.replica_pages, 0u);
  EXPECT_EQ(degraded.stats.unavailable_pages, 0u);
  // Every leaf is still read exactly once (failovers included).
  EXPECT_EQ(degraded.stats.total_pages + degraded.stats.buffer_hit_pages,
            degraded.stats.leaf_blocks);
  EXPECT_EQ(degraded.stats.coalesced_reads, healthy.stats.coalesced_reads);

  const JoinResult recovered = engine->SelfJoin(eps);
  ExpectSamePairs(healthy.pairs, recovered.pairs);
  EXPECT_FALSE(recovered.stats.degraded);
}

// A join reports a query's pages and times: its pages per disk add up
// to its total, and its healthy makespan equals the actual one on a
// healthy array and falls below it when the busiest disk runs slow.
TEST(SimilarityJoinTest, StatsCarryPerDiskPagesAndHealthyMakespan) {
  constexpr std::uint32_t kDisks = 8;
  const PointSet data = GenerateClusteredGaussian(3000, 6, 8, 0.05, 5303);
  const double eps = 0.07;
  const auto engine = MakeEngine(data, kDisks, SweepMode::kQuantized);
  const JoinResult healthy = engine->SelfJoin(eps);
  const JoinStats& hs = healthy.stats;
  ASSERT_EQ(hs.pages_per_disk.size(), kDisks);
  std::uint64_t total_pages = 0;
  for (const std::uint64_t pages : hs.pages_per_disk) total_pages += pages;
  EXPECT_EQ(total_pages, hs.total_pages);
  EXPECT_FALSE(hs.degraded);
  EXPECT_EQ(hs.healthy_parallel_ms, hs.parallel_ms);

  const auto busiest = static_cast<std::uint32_t>(
      std::max_element(hs.pages_per_disk.begin(), hs.pages_per_disk.end()) -
      hs.pages_per_disk.begin());
  ASSERT_GT(hs.pages_per_disk[busiest], 0u);
  FaultPlan plan(kDisks);
  plan.SlowDisk(busiest, 3.0);
  engine->SetFaultPlan(plan);
  const JoinResult slow = engine->SelfJoin(eps);
  engine->ClearFaults();

  ExpectSamePairs(healthy.pairs, slow.pairs);
  EXPECT_EQ(slow.stats.pages_per_disk, hs.pages_per_disk);
  EXPECT_TRUE(slow.stats.degraded);
  EXPECT_LT(slow.stats.healthy_parallel_ms, slow.stats.parallel_ms);
  // Healthy rates ignore the slowdown: the same pages, the same makespan.
  EXPECT_EQ(slow.stats.healthy_parallel_ms, hs.parallel_ms);
}

TEST(SimilarityJoinTest, QuantizedSweepAccountingTiesToExact) {
  const PointSet data = GenerateClusteredGaussian(2500, 8, 8, 0.05, 5501);
  const double eps = 0.06;
  const auto exact = MakeEngine(data, 8, SweepMode::kExact);
  const auto quant = MakeEngine(data, 8, SweepMode::kQuantized);
  const JoinResult re = exact->SelfJoin(eps);
  const JoinResult rq = quant->SelfJoin(eps);
  ExpectSamePairs(re.pairs, rq.pairs);
  // The quantized sweeps triage exactly the candidate pairs the exact
  // sweep evaluated: every candidate is either pruned by a provable
  // lower bound or re-ranked through the exact kernel.
  EXPECT_EQ(rq.stats.quantized_pruned + rq.stats.reranked,
            re.stats.distance_computations);
  // Pruning must actually bite on clustered data at a selective eps.
  EXPECT_GT(rq.stats.quantized_pruned, re.stats.distance_computations / 2);
  EXPECT_EQ(rq.stats.quantized_pruned,
            rq.stats.base_pruned + rq.stats.sq8_pruned);
  // Re-ranked exact evaluations are the only float kernel work.
  EXPECT_EQ(rq.stats.distance_computations, rq.stats.reranked);
  EXPECT_LT(rq.stats.distance_computations, re.stats.distance_computations);
}

// A join profiles exactly when its JoinOptions ask: an engine built with
// profile_phases profiles Query and QueryBatch, not joins, so a caller
// can time a plain join on the same engine it profiles queries with.
TEST(SimilarityJoinTest, ProfilesExactlyWhenTheJoinAsks) {
  const PointSet data = GenerateClusteredGaussian(2500, 8, 8, 0.05, 5501);
  EngineOptions options;
  options.architecture = Architecture::kSharedTree;
  options.bulk_load = true;
  options.quantized_leaf_blocks = true;
  options.profile_phases = true;
  ParallelSearchEngine engine(
      data.dim(), std::make_unique<NearOptimalDeclusterer>(data.dim(), 8),
      options);
  ASSERT_TRUE(engine.Build(data).ok());
  JoinOptions join;
  join.profile_phases = false;
  const JoinResult plain = engine.SelfJoin(0.06, join);
  for (const double ms : plain.stats.phases.ms) EXPECT_EQ(ms, 0.0);
  join.profile_phases = true;
  const JoinResult profiled = engine.SelfJoin(0.06, join);
  EXPECT_GT(profiled.stats.phases.total_ms(), 0.0);
  ExpectSamePairs(plain.pairs, profiled.pairs);
  ExpectSameStats(plain.stats, profiled.stats);
}

TEST(SimilarityJoinTest, TinyInputs) {
  // n = 1: no pairs, but the join must run (one leaf, one self pair).
  PointSet one(4);
  one.Add(Point(4, 0.5f));
  const auto e1 = MakeEngine(one, 2, SweepMode::kExact);
  const JoinResult r1 = e1->SelfJoin(1.0);
  EXPECT_TRUE(r1.pairs.empty());
  EXPECT_EQ(r1.stats.leaf_blocks, 1u);
  EXPECT_EQ(r1.stats.block_pairs_swept, 1u);

  // n = 2 within range: exactly one pair.
  PointSet two(4);
  two.Add(Point(4, 0.4f));
  two.Add(Point(4, 0.6f));
  const auto e2 = MakeEngine(two, 2, SweepMode::kExact);
  const JoinResult r2 = e2->SelfJoin(1.0);
  ASSERT_EQ(r2.pairs.size(), 1u);
  EXPECT_EQ(r2.pairs[0].a, 0u);
  EXPECT_EQ(r2.pairs[0].b, 1u);
  ExpectSamePairs(BruteForceSelfJoin(two, 1.0), r2.pairs);

  // Huge epsilon: all n*(n-1)/2 pairs, still matching the oracle.
  const PointSet small = GenerateUniform(60, 3, 5701);
  const auto e3 = MakeEngine(small, 2, SweepMode::kQuantized);
  const JoinResult r3 = e3->SelfJoin(10.0);
  EXPECT_EQ(r3.pairs.size(), small.size() * (small.size() - 1) / 2);
  ExpectSamePairs(BruteForceSelfJoin(small, 10.0), r3.pairs);
  EXPECT_EQ(r3.stats.block_pairs_pruned, 0u);
}

TEST(SimilarityJoinTest, MbrPruningBitesOnSeparatedClusters) {
  // Two tight, well-separated clusters: cross-cluster block pairs must
  // be pruned by MBR MINDIST without touching any page.
  const std::size_t dim = 4;
  PointSet data(dim);
  Rng rng(5901);
  for (std::size_t i = 0; i < 2000; ++i) {
    Point p(dim);
    const double base = i < 1000 ? 0.1 : 0.9;
    for (std::size_t d = 0; d < dim; ++d) {
      p[d] = static_cast<Scalar>(base + 0.02 * (rng.NextDouble() - 0.5));
    }
    data.Add(p);
  }
  const double eps = 0.05;  // far below the ~1.6 cluster separation
  const auto engine = MakeEngine(data, 8, SweepMode::kExact);
  const JoinResult result = engine->SelfJoin(eps);
  ExpectSamePairs(BruteForceSelfJoin(data, eps), result.pairs);
  ExpectJoinInvariants(result.stats);
  EXPECT_GT(result.stats.block_pairs_pruned, 0u);
  // No pair may bridge the clusters.
  for (const JoinPair& p : result.pairs) {
    EXPECT_EQ(p.a < 1000, p.b < 1000);
  }
}

}  // namespace
}  // namespace parsim
