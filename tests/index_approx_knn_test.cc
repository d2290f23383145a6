// The approximate search tier vs the exact path it relaxes.
//
// The tier is one knob, EngineOptions::approx_epsilon, and 0 is the
// exact engine by construction: the engine resolves it to the
// comparable-scale factor ToComparable(1 + 0) = 1.0, at which every
// approx branch is dead. What is left to test is eps > 0, which must
// honor the (1+eps) contract. The HS bound only tightens and finishes
// equal to the reported k-th distance D_k, so every skipped candidate
// has true distance > D_k/(1+eps). Corollaries pinned here per query:
// D_k <= (1+eps) * d_true_k, every true neighbor with d * (1+eps) < D_k
// is returned, and measured recall is at least the analytic floor
// |{i : d_i * (1+eps) <= d_true_k}| / k.
//
// The contract is checked across metrics and epsilons with both
// mechanisms (early termination and bound relaxation) on together, as
// the engine always runs them, and across thread counts (the skip
// decisions depend only on each query's own frontier state, so the
// batch must stay deterministic under any worker count). An epsilon
// below 0, or NaN, fails the engine's check.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/near_optimal.h"
#include "src/eval/recall.h"
#include "src/geometry/metric.h"
#include "src/parallel/engine.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

constexpr MetricKind kAllKinds[] = {MetricKind::kL1, MetricKind::kL2,
                                    MetricKind::kLmax};

struct EngineConfig {
  MetricKind metric = MetricKind::kL2;
  double epsilon = 0.0;
};

std::unique_ptr<ParallelSearchEngine> MakeEngine(const PointSet& data,
                                                 const EngineConfig& config) {
  EngineOptions options;
  options.architecture = Architecture::kSharedTree;
  options.bulk_load = true;
  options.metric = Metric(config.metric);
  options.coalesced_batch = true;
  options.quantized_leaf_blocks = true;
  options.approx_epsilon = config.epsilon;
  auto engine = std::make_unique<ParallelSearchEngine>(
      data.dim(), std::make_unique<NearOptimalDeclusterer>(data.dim(), 4),
      options);
  EXPECT_TRUE(engine->Build(data).ok());
  return engine;
}

// Relative fp slop for contract checks across the float kernel / double
// bound boundary.
constexpr double kSlop = 1e-9;

/// Checks the full (1+eps) contract of one approximate run against the
/// oracle truth; returns the number of queries whose answer differed
/// from exact at all (so callers can assert the approximation actually
/// did something).
void ExpectContractHolds(const std::vector<KnnResult>& results,
                         const std::vector<KnnResult>& truth, std::size_t k,
                         double epsilon) {
  ASSERT_EQ(results.size(), truth.size());
  for (std::size_t qi = 0; qi < results.size(); ++qi) {
    const std::size_t want = std::min(k, truth[qi].size());
    ASSERT_EQ(results[qi].size(), want) << "query " << qi;
    if (want == 0) continue;
    const double d_true = truth[qi][want - 1].distance;
    const double d_got = results[qi][want - 1].distance;
    // Corollary 1: the reported k-th distance is (1+eps)-competitive.
    EXPECT_LE(d_got, (1.0 + epsilon) * d_true * (1.0 + kSlop))
        << "query " << qi;
    // Corollary 2: every true neighbor clearly inside D_k/(1+eps) is
    // present in the returned set.
    for (std::size_t i = 0; i < want; ++i) {
      if (truth[qi][i].distance * (1.0 + epsilon) >= d_got * (1.0 - kSlop)) {
        continue;  // inside the allowed loss band
      }
      bool found = false;
      for (const Neighbor& n : results[qi]) {
        if (n.id == truth[qi][i].id) {
          found = true;
          break;
        }
      }
      EXPECT_TRUE(found) << "query " << qi << " lost true neighbor rank " << i
                         << " (dist " << truth[qi][i].distance << ", D_k "
                         << d_got << ", eps " << epsilon << ")";
    }
    // Corollary 3: recall is at least the analytic floor.
    const double floor_count = [&] {
      std::size_t inside = 0;
      for (std::size_t i = 0; i < want; ++i) {
        if (truth[qi][i].distance * (1.0 + epsilon) <
            d_true * (1.0 - kSlop)) {
          ++inside;
        }
      }
      return static_cast<double>(inside);
    }();
    EXPECT_GE(RecallAtK(results[qi], truth[qi], k) *
                  static_cast<double>(want),
              floor_count - 0.5)
        << "query " << qi;
  }
}

class ApproxKnnTest : public ::testing::Test {
 protected:
  void SetUp() override {
    data_ = GenerateClusteredGaussian(1500, 8, /*clusters=*/12,
                                      /*stddev=*/0.04, 91);
    queries_ = GenerateUniform(24, 8, 93);
  }
  PointSet data_;
  PointSet queries_;
};

TEST_F(ApproxKnnTest, ContractHoldsAcrossMetricsAndEpsilons) {
  const std::size_t k = 9;
  for (const MetricKind kind : kAllKinds) {
    SCOPED_TRACE(MetricKindToString(kind));
    const std::vector<KnnResult> truth =
        ComputeGroundTruth(data_, queries_, k, Metric(kind));
    for (const double eps : {0.1, 0.5, 2.0}) {
      SCOPED_TRACE(eps);
      EngineConfig config{kind};
      config.epsilon = eps;
      const auto engine = MakeEngine(data_, config);
      const auto results = engine->QueryBatch(queries_, k, nullptr, 1);
      ExpectContractHolds(results, truth, k, eps);
    }
  }
}

TEST_F(ApproxKnnTest, DeterministicAcrossThreadCounts) {
  EngineConfig config;
  config.epsilon = 0.6;
  const auto engine = MakeEngine(data_, config);
  std::vector<QueryStats> serial_stats;
  const auto serial = engine->QueryBatch(queries_, 7, &serial_stats, 1);
  for (const unsigned threads : {2u, 8u}) {
    SCOPED_TRACE(threads);
    std::vector<QueryStats> stats;
    const auto results = engine->QueryBatch(queries_, 7, &stats, threads);
    ASSERT_EQ(results.size(), serial.size());
    for (std::size_t qi = 0; qi < serial.size(); ++qi) {
      ASSERT_EQ(results[qi].size(), serial[qi].size());
      for (std::size_t i = 0; i < serial[qi].size(); ++i) {
        EXPECT_EQ(results[qi][i].id, serial[qi][i].id);
        EXPECT_EQ(results[qi][i].distance, serial[qi][i].distance);
      }
      EXPECT_EQ(stats[qi].total_pages, serial_stats[qi].total_pages);
      EXPECT_EQ(stats[qi].approx_skipped_nodes,
                serial_stats[qi].approx_skipped_nodes);
      EXPECT_EQ(stats[qi].approx_pruned_exactly,
                serial_stats[qi].approx_pruned_exactly);
    }
  }
}

TEST_F(ApproxKnnTest, LargeEpsilonActuallySkipsWork) {
  EngineConfig exact_config;
  EngineConfig approx_config;
  approx_config.epsilon = 1.0;
  const auto exact = MakeEngine(data_, exact_config);
  const auto approx = MakeEngine(data_, approx_config);
  std::vector<QueryStats> exact_stats, approx_stats;
  (void)exact->QueryBatch(queries_, 9, &exact_stats, 1);
  (void)approx->QueryBatch(queries_, 9, &approx_stats, 1);
  std::uint64_t exact_pages = 0, approx_pages = 0, skipped = 0;
  for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
    exact_pages += exact_stats[qi].total_pages;
    approx_pages += approx_stats[qi].total_pages;
    skipped += approx_stats[qi].approx_skipped_nodes;
  }
  // At eps = 1 on clustered data the skip must fire and save real pages.
  EXPECT_GT(skipped, 0u);
  EXPECT_LT(approx_pages, exact_pages);
}

TEST(ApproxKnnDeathTest, NegativeOrNanEpsilonFailsCheck) {
  for (const double eps :
       {-0.25, -1e-300, std::numeric_limits<double>::quiet_NaN()}) {
    SCOPED_TRACE(eps);
    EngineOptions options;
    options.approx_epsilon = eps;
    EXPECT_DEATH(ParallelSearchEngine(
                     4, std::make_unique<NearOptimalDeclusterer>(4, 4),
                     options),
                 "PARSIM_CHECK");
  }
}

}  // namespace
}  // namespace parsim
