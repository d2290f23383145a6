// Degraded-read behavior of the parallel engine under injected faults:
// answer identity under failover, kUnavailable reporting, and the
// healthy-vs-degraded time accounting.

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/parsim/parsim.h"

namespace parsim {
namespace {

constexpr std::size_t kDim = 6;
constexpr std::uint32_t kDisks = 8;  // == NumColors(6): one color per disk
constexpr std::size_t kK = 10;

std::unique_ptr<ParallelSearchEngine> MakeEngine(bool replicas,
                                                 Architecture architecture,
                                                 const PointSet& data) {
  EngineOptions options;
  options.architecture = architecture;
  options.bulk_load = architecture != Architecture::kFederatedScan;
  options.enable_replicas = replicas;
  auto engine = std::make_unique<ParallelSearchEngine>(
      kDim, std::make_unique<NearOptimalDeclusterer>(kDim, kDisks), options);
  EXPECT_TRUE(engine->Build(data).ok());
  return engine;
}

void ExpectSameAnswers(const KnnResult& a, const KnnResult& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "rank " << i;
    EXPECT_EQ(a[i].distance, b[i].distance) << "rank " << i;
  }
}

class DegradedQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = GenerateUniform(4000, kDim, 2101);
    queries_ = GenerateUniformQueries(12, kDim, 2103);
  }

  PointSet data_{kDim};
  PointSet queries_{kDim};
};

TEST_F(DegradedQueryTest, AnySingleDiskFailureKeepsKnnAnswersIdentical) {
  const auto engine = MakeEngine(true, Architecture::kSharedTree, data_);
  const std::vector<KnnResult> healthy = engine->QueryBatch(queries_, kK);

  for (std::uint32_t failed = 0; failed < kDisks; ++failed) {
    FaultPlan plan(kDisks);
    plan.FailDisk(failed);
    engine->SetFaultPlan(plan);
    for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
      SCOPED_TRACE("failed disk " + std::to_string(failed) + ", query " +
                   std::to_string(qi));
      KnnResult result;
      QueryStats stats;
      const Status status =
          engine->TryQuery(queries_[qi], kK, &result, &stats);
      EXPECT_TRUE(status.ok()) << status.message();
      ExpectSameAnswers(result, healthy[qi]);
      EXPECT_EQ(stats.unavailable_pages, 0u);
      // Every read of the failed disk fails over, so a query that needed
      // it is flagged degraded with matching replica accounting.
      if (stats.replica_pages > 0) {
        EXPECT_TRUE(stats.degraded);
        EXPECT_GT(stats.failed_read_attempts, 0u);
        EXPECT_GE(stats.parallel_ms, stats.healthy_parallel_ms);
      }
    }
    engine->ClearFaults();
  }
}

// The quantized path under failover — a latent gap until this test:
// every degraded-read case above ran the exact float sweep, so a
// fault-routing bug in the SQ8 mirror path (whose leaf blocks are
// derived per disk and must follow the replica reroute) would have gone
// unnoticed. Answers under any single-disk failure must match the
// healthy EXACT engine bit for bit: quantization is error-bounded with
// exact re-rank, so not even the quantized path is allowed to change a
// result, degraded or not.
TEST_F(DegradedQueryTest, QuantizedFailoverMatchesHealthyExact) {
  const auto exact = MakeEngine(true, Architecture::kSharedTree, data_);
  const std::vector<KnnResult> healthy = exact->QueryBatch(queries_, kK);

  EngineOptions options;
  options.architecture = Architecture::kSharedTree;
  options.bulk_load = true;
  options.enable_replicas = true;
  options.quantized_leaf_blocks = true;
  ParallelSearchEngine quant(
      kDim, std::make_unique<NearOptimalDeclusterer>(kDim, kDisks), options);
  ASSERT_TRUE(quant.Build(data_).ok());

  std::uint64_t replica_pages = 0;
  std::uint64_t quantized_pruned = 0;
  for (std::uint32_t failed = 0; failed < kDisks; ++failed) {
    FaultPlan plan(kDisks);
    plan.FailDisk(failed);
    quant.SetFaultPlan(plan);
    for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
      SCOPED_TRACE("failed disk " + std::to_string(failed) + ", query " +
                   std::to_string(qi));
      KnnResult result;
      QueryStats stats;
      const Status status = quant.TryQuery(queries_[qi], kK, &result, &stats);
      EXPECT_TRUE(status.ok()) << status.message();
      ExpectSameAnswers(result, healthy[qi]);
      EXPECT_EQ(stats.unavailable_pages, 0u);
      replica_pages += stats.replica_pages;
      quantized_pruned += stats.quantized_pruned;
      if (stats.replica_pages > 0) {
        EXPECT_TRUE(stats.degraded);
      }
    }
    quant.ClearFaults();
  }
  // The test only bites if both machineries actually engaged.
  EXPECT_GT(replica_pages, 0u)
      << "no degraded query ever read a replica: failover path untested";
  EXPECT_GT(quantized_pruned, 0u)
      << "no quantized prune ever fired: quantized path untested";
}

TEST_F(DegradedQueryTest, SingleFailureTouchesReplicasForSomeQuery) {
  const auto engine = MakeEngine(true, Architecture::kSharedTree, data_);
  FaultPlan plan(kDisks);
  plan.FailDisk(0);
  engine->SetFaultPlan(plan);
  std::uint64_t replica_pages = 0;
  for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
    QueryStats stats;
    (void)engine->Query(queries_[qi], kK, &stats);
    replica_pages += stats.replica_pages;
  }
  EXPECT_GT(replica_pages, 0u)
      << "no query ever read a replica: fault routing is dead code";
}

TEST_F(DegradedQueryTest, NoReplicasFailureReportsUnavailableWithoutCrash) {
  const auto engine = MakeEngine(false, Architecture::kSharedTree, data_);
  FaultPlan plan(kDisks);
  plan.FailDisk(3);
  engine->SetFaultPlan(plan);

  bool saw_unavailable = false;
  for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
    KnnResult result;
    QueryStats stats;
    const Status status = engine->TryQuery(queries_[qi], kK, &result, &stats);
    EXPECT_EQ(status.ok(), stats.unavailable_pages == 0);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kUnavailable);
      EXPECT_TRUE(stats.degraded);
      saw_unavailable = true;
    }
    // The plain Query interface stays infallible (simulator semantics):
    // identical traversal, correct answers, never a crash.
    EXPECT_EQ(result.size(), kK);
  }
  EXPECT_TRUE(saw_unavailable)
      << "no query touched the failed disk; workload too small";
}

TEST_F(DegradedQueryTest, PrimaryAndReplicaBothFailedGoesUnavailable) {
  const auto engine = MakeEngine(true, Architecture::kSharedTree, data_);
  ASSERT_TRUE(engine->replicas_enabled());
  // With kDisks == NumColors(kDim) the folding is the identity: disk 0
  // serves color 0, whose replica disk the placement tells us directly.
  const DiskId partner = engine->replica_placement()->ReplicaOfColor(0);
  ASSERT_NE(partner, 0u);

  // Find a query that needs disk 0 while healthy.
  std::vector<QueryStats> healthy_stats;
  (void)engine->QueryBatch(queries_, kK, &healthy_stats);
  std::size_t victim = queries_.size();
  for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
    if (healthy_stats[qi].pages_per_disk[0] > 0) {
      victim = qi;
      break;
    }
  }
  ASSERT_LT(victim, queries_.size()) << "no query used disk 0";

  FaultPlan plan(kDisks);
  plan.FailDisk(0);
  plan.FailDisk(partner);
  engine->SetFaultPlan(plan);
  KnnResult result;
  QueryStats stats;
  const Status status = engine->TryQuery(queries_[victim], kK, &result, &stats);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_GT(stats.unavailable_pages, 0u);
}

TEST_F(DegradedQueryTest, SlowDiskKeepsAnswersAndStretchesTime) {
  const auto engine = MakeEngine(true, Architecture::kSharedTree, data_);
  std::vector<QueryStats> healthy_stats;
  const std::vector<KnnResult> healthy =
      engine->QueryBatch(queries_, kK, &healthy_stats);

  FaultPlan plan(kDisks);
  plan.SlowDisk(2, 4.0);
  engine->SetFaultPlan(plan);
  for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
    SCOPED_TRACE("query " + std::to_string(qi));
    QueryStats stats;
    const KnnResult result = engine->Query(queries_[qi], kK, &stats);
    ExpectSameAnswers(result, healthy[qi]);
    // Same traversal, same pages; only time stretches.
    EXPECT_EQ(stats.pages_per_disk, healthy_stats[qi].pages_per_disk);
    EXPECT_EQ(stats.healthy_parallel_ms, healthy_stats[qi].parallel_ms);
    EXPECT_GE(stats.parallel_ms, stats.healthy_parallel_ms);
    if (stats.pages_per_disk[2] > 0) {
      EXPECT_TRUE(stats.degraded);
    }
  }
}

TEST_F(DegradedQueryTest, HealthyRunsReportNoDegradation) {
  const auto engine = MakeEngine(true, Architecture::kSharedTree, data_);
  for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
    QueryStats stats;
    (void)engine->Query(queries_[qi], kK, &stats);
    EXPECT_FALSE(stats.degraded);
    EXPECT_EQ(stats.replica_pages, 0u);
    EXPECT_EQ(stats.failed_read_attempts, 0u);
    EXPECT_EQ(stats.unavailable_pages, 0u);
    EXPECT_EQ(stats.healthy_parallel_ms, stats.parallel_ms);  // bit-identical
  }
}

TEST_F(DegradedQueryTest, RangeQueryAnswersSurviveFailover) {
  const auto engine = MakeEngine(true, Architecture::kSharedTree, data_);
  std::vector<Scalar> lo(kDim, Scalar{0.2}), hi(kDim, Scalar{0.8});
  const Rect box(std::move(lo), std::move(hi));
  const std::vector<PointId> healthy = engine->RangeQuery(box);

  FaultPlan plan(kDisks);
  plan.FailDisk(1);
  engine->SetFaultPlan(plan);
  QueryStats stats;
  const std::vector<PointId> degraded = engine->RangeQuery(box, &stats);
  EXPECT_EQ(degraded, healthy);
  EXPECT_EQ(stats.unavailable_pages, 0u);
}

TEST_F(DegradedQueryTest, FederatedTreesFailureIsUnavailable) {
  const auto engine = MakeEngine(false, Architecture::kFederatedTrees, data_);
  FaultPlan plan(kDisks);
  plan.FailDisk(4);
  engine->SetFaultPlan(plan);
  // The federated fan-out touches every non-empty partition, so every
  // query sees the failed partition.
  KnnResult result;
  QueryStats stats;
  const Status status = engine->TryQuery(queries_[0], kK, &result, &stats);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_GT(stats.unavailable_pages, 0u);
  EXPECT_EQ(stats.pages_per_disk[4], 0u) << "failed disk must do no work";

  engine->ClearFaults();
  KnnResult healed;
  EXPECT_TRUE(engine->TryQuery(queries_[0], kK, &healed).ok());
  EXPECT_EQ(healed.size(), kK);
}

TEST_F(DegradedQueryTest, FederatedScanFailureIsUnavailable) {
  const auto engine = MakeEngine(false, Architecture::kFederatedScan, data_);
  FaultPlan plan(kDisks);
  plan.FailDisk(6);
  engine->SetFaultPlan(plan);
  KnnResult result;
  QueryStats stats;
  const Status status = engine->TryQuery(queries_[1], kK, &result, &stats);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  EXPECT_GT(stats.unavailable_pages, 0u);
}

TEST_F(DegradedQueryTest, ThroughputReportsDegradationFactors) {
  const auto engine = MakeEngine(true, Architecture::kSharedTree, data_);
  const ThroughputResult healthy = SimulateThroughput(*engine, queries_, kK);
  EXPECT_EQ(healthy.degraded_queries, 0u);
  EXPECT_EQ(healthy.makespan_ms, healthy.healthy_makespan_ms);

  engine->SetFaultPlan(FaultPlan::WithRandomFailures(kDisks, 1, 17));
  const ThroughputResult degraded = SimulateThroughput(*engine, queries_, kK);
  EXPECT_GT(degraded.degraded_queries, 0u);
  EXPECT_GT(degraded.replica_pages, 0u);
  EXPECT_GE(degraded.makespan_ms, degraded.healthy_makespan_ms);
  EXPECT_EQ(degraded.unavailable_pages, 0u);
}

// Pins the fault-accounting fix: the federated tree paths used to charge
// exactly ONE unavailable page per failed disk, undercounting the lost
// work; they must charge the failed partition's actual data-page count,
// exactly like the scan architecture always has. Fully packed leaves
// (bulk_load_fill = 1.0) make a partition's tree data pages equal the
// scan's packed pages, so the two architectures must agree bit-for-bit
// — and the count must be the real partition size, not 1.
TEST_F(DegradedQueryTest, FederatedUnavailablePagesMatchScanParity) {
  EngineOptions tree_options;
  tree_options.architecture = Architecture::kFederatedTrees;
  tree_options.bulk_load = true;
  tree_options.bulk_load_fill = 1.0;
  auto tree_engine = std::make_unique<ParallelSearchEngine>(
      kDim, std::make_unique<NearOptimalDeclusterer>(kDim, kDisks),
      tree_options);
  ASSERT_TRUE(tree_engine->Build(data_).ok());
  const auto scan_engine =
      MakeEngine(false, Architecture::kFederatedScan, data_);

  FaultPlan plan(kDisks);
  plan.FailDisk(3);
  tree_engine->SetFaultPlan(plan);
  scan_engine->SetFaultPlan(plan);

  // k-NN path.
  KnnResult tree_result, scan_result;
  QueryStats tree_stats, scan_stats;
  EXPECT_EQ(
      tree_engine->TryQuery(queries_[0], kK, &tree_result, &tree_stats).code(),
      StatusCode::kUnavailable);
  EXPECT_EQ(
      scan_engine->TryQuery(queries_[0], kK, &scan_result, &scan_stats).code(),
      StatusCode::kUnavailable);
  EXPECT_GT(tree_stats.unavailable_pages, 1u)
      << "regression: tree path charged one page per failed disk";
  EXPECT_EQ(tree_stats.unavailable_pages, scan_stats.unavailable_pages);

  // Range path (PartialMatchQuery is the degenerate range query).
  QueryStats tree_range_stats, scan_range_stats;
  (void)tree_engine->PartialMatchQuery({{0, 0.5f}}, 0.25f, &tree_range_stats);
  (void)scan_engine->PartialMatchQuery({{0, 0.5f}}, 0.25f, &scan_range_stats);
  EXPECT_GT(tree_range_stats.unavailable_pages, 1u);
  EXPECT_EQ(tree_range_stats.unavailable_pages,
            scan_range_stats.unavailable_pages);

  // Similarity (ball) path.
  QueryStats tree_ball_stats, scan_ball_stats;
  (void)tree_engine->SimilarityQuery(queries_[1], 0.3, &tree_ball_stats);
  (void)scan_engine->SimilarityQuery(queries_[1], 0.3, &scan_ball_stats);
  EXPECT_GT(tree_ball_stats.unavailable_pages, 1u);
  EXPECT_EQ(tree_ball_stats.unavailable_pages,
            scan_ball_stats.unavailable_pages);
}

}  // namespace
}  // namespace parsim
