// The recall harness vs the brute-force oracle it wraps.
//
// The scorer's one subtle clause is tie tolerance: recall@k judged by
// id-set intersection punishes a correct answer for returning a
// DIFFERENT equidistant point at the k-th position, so the scorer
// counts any returned entry at least as close as the truth's k-th
// distance. These tests pin that clause directly (hand-built duplicate
// distances at the cut line), check the scorer against plain id
// intersection whenever distances are distinct (where the two
// definitions must coincide), and check the oracle ground truth.

#include <vector>

#include <gtest/gtest.h>

#include "src/eval/recall.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

PointSet SinglePoint(std::initializer_list<Scalar> coords) {
  PointSet set(coords.size());
  set.Add(PointView{coords.begin(), coords.size()});
  return set;
}

/// 1-d data set with points at the given positive positions; a query at
/// the origin sees each position as its distance.
PointSet Line(const std::vector<Scalar>& positions) {
  PointSet set(1);
  for (const Scalar p : positions) set.Add(PointView{&p, 1});
  return set;
}

TEST(RecallAtK, OracleResultScoresPerfectly) {
  for (std::size_t dim = 2; dim <= 16; ++dim) {
    const PointSet data = GenerateUniform(200, dim, 42 + dim);
    const PointSet queries = GenerateUniform(8, dim, 4242 + dim);
    const std::vector<KnnResult> truth =
        ComputeGroundTruth(data, queries, 10);
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      EXPECT_EQ(RecallAtK(truth[qi], truth[qi], 10), 1.0) << "dim " << dim;
    }
    const RecallStats stats = ScoreRecall(truth, truth, 10);
    EXPECT_EQ(stats.mean, 1.0);
    EXPECT_EQ(stats.min, 1.0);
    EXPECT_EQ(stats.hits, stats.wanted);
    EXPECT_EQ(stats.queries, queries.size());
  }
}

// With all pairwise distances distinct (generic random floats), tie
// tolerance can never fire and the scorer must agree with plain id-set
// intersection — the two recall definitions only part ways on ties.
TEST(RecallAtK, MatchesIdIntersectionOnDistinctDistances) {
  const Metric metric;
  for (std::size_t dim = 2; dim <= 16; ++dim) {
    const PointSet data = GenerateUniform(300, dim, 77 + dim);
    const PointSet queries = GenerateUniform(6, dim, 7777 + dim);
    const std::size_t k = 8;
    const std::vector<KnnResult> truth = ComputeGroundTruth(data, queries, k);
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      // Degrade the oracle answer: drop ranks 0, 3, 6, ...
      KnnResult degraded;
      std::size_t kept = 0;
      for (std::size_t i = 0; i < truth[qi].size(); ++i) {
        if (i % 3 == 0) continue;  // a miss
        degraded.push_back(truth[qi][i]);
        ++kept;
      }
      const double r = RecallAtK(degraded, truth[qi], k);
      // Id intersection: exactly the kept entries.
      EXPECT_DOUBLE_EQ(r, static_cast<double>(kept) /
                              static_cast<double>(k))
          << "dim " << dim << " query " << qi;
    }
  }
}

TEST(RecallAtK, TieAtTheKthPositionIsNotAMiss) {
  // Distances 1, 2, 3 and then three points tied at 4: any of ids
  // {3, 4, 5} is a valid 4-th answer.
  const PointSet data = Line({1.0f, 2.0f, 3.0f, 4.0f, 4.0f, 4.0f});
  const PointSet query = SinglePoint({0.0f});
  const std::vector<KnnResult> truth = ComputeGroundTruth(data, query, 4);
  ASSERT_EQ(truth[0].size(), 4u);
  EXPECT_EQ(truth[0][3].distance, 4.0);

  // A result that picked a DIFFERENT tied point than the oracle did.
  KnnResult other = truth[0];
  other[3].id = other[3].id == 3 ? 4 : 3;
  EXPECT_EQ(RecallAtK(other, truth[0], 4), 1.0);

  // All three tied points returned in a k=5 answer against k=5 truth:
  // more tied hits than slots must cap at 1.0, not exceed it.
  const std::vector<KnnResult> truth5 = ComputeGroundTruth(data, query, 5);
  EXPECT_EQ(RecallAtK(truth5[0], truth5[0], 5), 1.0);

  // But a genuinely farther point in the k-th slot IS a miss.
  KnnResult miss = truth[0];
  miss[3] = Neighbor{5, 9.0};
  EXPECT_EQ(RecallAtK(miss, truth[0], 4), 0.75);
}

TEST(RecallAtK, KLargerThanDataSet) {
  const PointSet data = Line({1.0f, 2.0f, 3.0f});
  const PointSet query = SinglePoint({0.0f});
  // Truth holds 3 answers; want = min(10, 3) = 3.
  const std::vector<KnnResult> truth = ComputeGroundTruth(data, query, 10);
  ASSERT_EQ(truth[0].size(), 3u);
  EXPECT_EQ(RecallAtK(truth[0], truth[0], 10), 1.0);
  KnnResult partial = {truth[0][0]};
  EXPECT_NEAR(RecallAtK(partial, truth[0], 10), 1.0 / 3.0, 1e-15);
  EXPECT_EQ(RecallAtK(KnnResult{}, truth[0], 10), 0.0);
}

TEST(RecallAtK, EmptyTruthScoresOne) {
  EXPECT_EQ(RecallAtK(KnnResult{}, KnnResult{}, 5), 1.0);
  EXPECT_EQ(RecallAtK(KnnResult{{0, 1.0}}, KnnResult{}, 5), 1.0);
  const RecallStats stats = ScoreRecall({}, {}, 5);
  EXPECT_EQ(stats.mean, 1.0);
  EXPECT_EQ(stats.queries, 0u);
}

TEST(GroundTruth, ParallelOracleMatchesSerial) {
  const PointSet data = GenerateUniform(500, 6, 11);
  const PointSet queries = GenerateUniform(16, 6, 13);
  ThreadPool pool(4);
  const std::vector<KnnResult> serial =
      ComputeGroundTruth(data, queries, 7, Metric(), nullptr);
  const std::vector<KnnResult> parallel =
      ComputeGroundTruth(data, queries, 7, Metric(), &pool);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t qi = 0; qi < serial.size(); ++qi) {
    ASSERT_EQ(serial[qi].size(), parallel[qi].size());
    for (std::size_t i = 0; i < serial[qi].size(); ++i) {
      EXPECT_EQ(serial[qi][i].id, parallel[qi][i].id);
      EXPECT_EQ(serial[qi][i].distance, parallel[qi][i].distance);
    }
  }
}

}  // namespace
}  // namespace parsim
