// The approximate search tier vs the exact path it relaxes.
//
// Two properties carry the whole tier and both are testable without any
// tolerance for hand-waving:
//
//   1. eps = 0 is EXACT — not "close", bit-identical: results,
//      distances, page counts, per-disk page spreads, and every
//      quantized-prune counter, because each approx branch is gated on
//      factor > 1.0 and therefore compiled-in but never taken.
//   2. eps > 0 honors the (1+eps) contract. The HS bound only tightens
//      and finishes equal to the reported k-th distance D_k, so every
//      skipped candidate has true distance > D_k/(1+eps). Corollaries
//      pinned here per query: D_k <= (1+eps) * d_true_k, every true
//      neighbor with d * (1+eps) < D_k is returned, and measured recall
//      is at least the analytic floor |{i : d_i * (1+eps) <= d_true_k}|
//      / k.
//
// Both are checked across metrics, both approx mechanisms in isolation
// (bound relaxation without early termination and vice versa), the
// single-query and coalesced-batch paths, and thread counts (the skip
// decisions depend only on each query's own frontier state, so the
// batch must stay deterministic under any worker count).

#include <algorithm>
#include <cstdint>
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
  bool approx = false;
  double epsilon = 0.0;
  bool relax_bounds = true;
  bool early_termination = true;
  bool coalesced = true;
};

std::unique_ptr<ParallelSearchEngine> MakeEngine(const PointSet& data,
                                                 const EngineConfig& config) {
  EngineOptions options;
  options.architecture = Architecture::kSharedTree;
  options.bulk_load = true;
  options.metric = Metric(config.metric);
  options.coalesced_batch = config.coalesced;
  options.quantized_leaf_blocks = true;
  options.approx.enabled = config.approx;
  options.approx.epsilon = config.epsilon;
  options.approx.relax_bounds = config.relax_bounds;
  options.approx.early_termination = config.early_termination;
  auto engine = std::make_unique<ParallelSearchEngine>(
      data.dim(), std::make_unique<NearOptimalDeclusterer>(data.dim(), 4),
      options);
  EXPECT_TRUE(engine->Build(data).ok());
  return engine;
}

void ExpectRunsBitIdentical(const std::vector<KnnResult>& a,
                            const std::vector<KnnResult>& b,
                            const std::vector<QueryStats>& sa,
                            const std::vector<QueryStats>& sb) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t qi = 0; qi < a.size(); ++qi) {
    ASSERT_EQ(a[qi].size(), b[qi].size()) << "query " << qi;
    for (std::size_t i = 0; i < a[qi].size(); ++i) {
      EXPECT_EQ(a[qi][i].id, b[qi][i].id) << "query " << qi << " rank " << i;
      EXPECT_EQ(a[qi][i].distance, b[qi][i].distance)
          << "query " << qi << " rank " << i;
    }
    EXPECT_EQ(sa[qi].total_pages, sb[qi].total_pages) << "query " << qi;
    EXPECT_EQ(sa[qi].directory_pages, sb[qi].directory_pages) << "query "
                                                              << qi;
    EXPECT_EQ(sa[qi].pages_per_disk, sb[qi].pages_per_disk) << "query " << qi;
    EXPECT_EQ(sa[qi].quantized_pruned, sb[qi].quantized_pruned)
        << "query " << qi;
    EXPECT_EQ(sa[qi].approx_skipped_nodes, 0u) << "query " << qi;
    EXPECT_EQ(sb[qi].approx_skipped_nodes, 0u) << "query " << qi;
    EXPECT_EQ(sa[qi].approx_pruned_exactly, 0u) << "query " << qi;
  }
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

TEST_F(ApproxKnnTest, EpsilonZeroIsBitIdenticalCoalesced) {
  for (const MetricKind kind : kAllKinds) {
    SCOPED_TRACE(MetricKindToString(kind));
    EngineConfig exact_config{kind};
    EngineConfig approx_config{kind};
    approx_config.approx = true;
    approx_config.epsilon = 0.0;
    const auto exact = MakeEngine(data_, exact_config);
    const auto approx = MakeEngine(data_, approx_config);
    std::vector<QueryStats> exact_stats, approx_stats;
    const auto exact_results =
        exact->QueryBatch(queries_, 9, &exact_stats, 1);
    const auto approx_results =
        approx->QueryBatch(queries_, 9, &approx_stats, 1);
    ExpectRunsBitIdentical(exact_results, approx_results, exact_stats,
                           approx_stats);
  }
}

TEST_F(ApproxKnnTest, EpsilonZeroIsBitIdenticalSingleQuery) {
  for (const MetricKind kind : kAllKinds) {
    SCOPED_TRACE(MetricKindToString(kind));
    EngineConfig exact_config{kind};
    exact_config.coalesced = false;
    EngineConfig approx_config = exact_config;
    approx_config.approx = true;
    // enabled with epsilon == 0 must resolve to the exact context.
    const auto exact = MakeEngine(data_, exact_config);
    const auto approx = MakeEngine(data_, approx_config);
    std::vector<QueryStats> exact_stats(queries_.size());
    std::vector<QueryStats> approx_stats(queries_.size());
    std::vector<KnnResult> exact_results, approx_results;
    for (std::size_t qi = 0; qi < queries_.size(); ++qi) {
      exact_results.push_back(
          exact->Query(queries_[qi], 9, &exact_stats[qi]));
      approx_results.push_back(
          approx->Query(queries_[qi], 9, &approx_stats[qi]));
    }
    ExpectRunsBitIdentical(exact_results, approx_results, exact_stats,
                           approx_stats);
  }
}

TEST_F(ApproxKnnTest, ContractHoldsAcrossMetricsAndEpsilons) {
  const std::size_t k = 9;
  for (const MetricKind kind : kAllKinds) {
    SCOPED_TRACE(MetricKindToString(kind));
    const std::vector<KnnResult> truth =
        ComputeGroundTruth(data_, queries_, k, Metric(kind));
    for (const double eps : {0.1, 0.5, 2.0}) {
      SCOPED_TRACE(eps);
      EngineConfig config{kind};
      config.approx = true;
      config.epsilon = eps;
      const auto engine = MakeEngine(data_, config);
      const auto results = engine->QueryBatch(queries_, k, nullptr, 1);
      ExpectContractHolds(results, truth, k, eps);
    }
  }
}

TEST_F(ApproxKnnTest, ContractHoldsPerMechanism) {
  const std::size_t k = 9;
  const std::vector<KnnResult> truth = ComputeGroundTruth(data_, queries_, k);
  for (const bool relax : {true, false}) {
    EngineConfig config;
    config.approx = true;
    config.epsilon = 0.75;
    config.relax_bounds = relax;
    config.early_termination = !relax;
    SCOPED_TRACE(relax ? "relax_bounds only" : "early_termination only");
    const auto engine = MakeEngine(data_, config);
    std::vector<QueryStats> stats;
    const auto results = engine->QueryBatch(queries_, k, &stats, 1);
    ExpectContractHolds(results, truth, k, 0.75);
    std::uint64_t skipped = 0, pruned_exactly = 0, quantized = 0;
    for (const QueryStats& s : stats) {
      skipped += s.approx_skipped_nodes;
      pruned_exactly += s.approx_pruned_exactly;
      quantized += s.quantized_pruned;
    }
    if (relax) {
      // Bound relaxation alone never skips frontier nodes...
      EXPECT_EQ(skipped, 0u);
      // ... and attributes its prunes: the exactly-attributed share can
      // never exceed all quantized prunes.
      EXPECT_LE(pruned_exactly, quantized);
      EXPECT_GT(pruned_exactly, 0u);
    } else {
      // Early termination alone never relaxes the sweep cutoff.
      EXPECT_EQ(pruned_exactly, 0u);
      EXPECT_GT(skipped, 0u);
    }
  }
}

TEST_F(ApproxKnnTest, DeterministicAcrossThreadCounts) {
  EngineConfig config;
  config.approx = true;
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
  approx_config.approx = true;
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

}  // namespace
}  // namespace parsim
