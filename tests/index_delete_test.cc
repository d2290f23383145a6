// Deletion (R* CondenseTree) tests: structural invariants must survive
// arbitrary delete/insert interleavings, and queries must reflect
// deletions immediately.

#include <algorithm>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "src/core/near_optimal.h"
#include "src/index/knn.h"
#include "src/index/rstar_tree.h"
#include "src/index/xtree.h"
#include "src/parallel/engine.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

TEST(DeleteTest, DeleteFromEmptyTreeIsNotFound) {
  SimulatedDisk disk(0);
  RStarTree tree(2, &disk);
  EXPECT_EQ(tree.Delete(Point({0.5f, 0.5f}), 0).code(), StatusCode::kNotFound);
}

TEST(DeleteTest, DimensionMismatchRejected) {
  SimulatedDisk disk(0);
  RStarTree tree(3, &disk);
  EXPECT_EQ(tree.Delete(Point({0.5f, 0.5f}), 0).code(),
            StatusCode::kInvalidArgument);
}

// A NaN record could never be deleted (NaN != NaN), so Insert refuses
// non-finite coordinates up front and stores nothing.
TEST(DeleteTest, NonFiniteInsertRejected) {
  SimulatedDisk disk(0);
  RStarTree tree(2, &disk);
  ASSERT_TRUE(tree.Insert(Point({0.5f, 0.5f}), 0).ok());
  for (const Scalar bad : {std::numeric_limits<Scalar>::quiet_NaN(),
                           std::numeric_limits<Scalar>::infinity(),
                           -std::numeric_limits<Scalar>::infinity()}) {
    EXPECT_EQ(tree.Insert(Point({0.25f, bad}), 1).code(),
              StatusCode::kInvalidArgument);
    EXPECT_TRUE(tree.changed_leaves().empty());
  }
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_TRUE(tree.ValidateInvariants().ok());
}

TEST(DeleteTest, InsertThenDeleteSinglePoint) {
  SimulatedDisk disk(0);
  RStarTree tree(2, &disk);
  const Point p = {0.25f, 0.75f};
  ASSERT_TRUE(tree.Insert(p, 7).ok());
  ASSERT_TRUE(tree.Delete(p, 7).ok());
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_TRUE(tree.ValidateInvariants().ok());
  EXPECT_FALSE(tree.Contains(p, 7));
  // The tree is usable again afterwards.
  ASSERT_TRUE(tree.Insert(p, 8).ok());
  EXPECT_TRUE(tree.Contains(p, 8));
}

TEST(DeleteTest, WrongIdOrWrongPointNotFound) {
  SimulatedDisk disk(0);
  RStarTree tree(2, &disk);
  const Point p = {0.25f, 0.75f};
  ASSERT_TRUE(tree.Insert(p, 7).ok());
  EXPECT_EQ(tree.Delete(p, 8).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree.Delete(Point({0.25f, 0.76f}), 7).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(DeleteTest, DeleteHalfThenRangeQueryMatches) {
  SimulatedDisk disk(0);
  RStarTree tree(3, &disk);
  const PointSet data = GenerateUniform(4000, 3, 601);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data[i], static_cast<PointId>(i)).ok());
  }
  // Delete every even id.
  for (std::size_t i = 0; i < data.size(); i += 2) {
    ASSERT_TRUE(tree.Delete(data[i], static_cast<PointId>(i)).ok())
        << "id " << i;
  }
  EXPECT_EQ(tree.size(), 2000u);
  ASSERT_TRUE(tree.ValidateInvariants().ok());
  auto hits = tree.RangeQuery(Rect::UnitCube(3));
  EXPECT_EQ(hits.size(), 2000u);
  for (PointId id : hits) EXPECT_EQ(id % 2, 1u);
}

TEST(DeleteTest, DeleteEverythingEmptiesTheTree) {
  SimulatedDisk disk(0);
  XTree tree(4, &disk);
  const PointSet data = GenerateUniform(1500, 4, 603);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data[i], static_cast<PointId>(i)).ok());
  }
  // Delete in a shuffled order to exercise many condense paths.
  std::vector<std::size_t> order(data.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(605);
  rng.Shuffle(&order);
  for (std::size_t i : order) {
    ASSERT_TRUE(tree.Delete(data[i], static_cast<PointId>(i)).ok());
    // Spot-check invariants along the way (full check every 100 ops).
    if (tree.size() % 100 == 0) {
      ASSERT_TRUE(tree.ValidateInvariants().ok())
          << "at size " << tree.size();
    }
  }
  EXPECT_EQ(tree.size(), 0u);
  EXPECT_EQ(tree.height(), 0);
  EXPECT_TRUE(tree.RangeQuery(Rect::UnitCube(4)).empty());
}

TEST(DeleteTest, KnnNeverReturnsDeletedPoints) {
  SimulatedDisk disk(0);
  XTree tree(5, &disk);
  const PointSet data = GenerateUniform(3000, 5, 607);
  for (std::size_t i = 0; i < data.size(); ++i) {
    ASSERT_TRUE(tree.Insert(data[i], static_cast<PointId>(i)).ok());
  }
  const Point query = {0.5f, 0.5f, 0.5f, 0.5f, 0.5f};
  const KnnResult before = HsKnn(tree, query, 5);
  // Delete the current 5 nearest neighbors.
  std::set<PointId> deleted;
  for (const Neighbor& n : before) {
    ASSERT_TRUE(tree.Delete(data[n.id], n.id).ok());
    deleted.insert(n.id);
  }
  const KnnResult after = HsKnn(tree, query, 5);
  ASSERT_EQ(after.size(), 5u);
  for (const Neighbor& n : after) {
    EXPECT_EQ(deleted.count(n.id), 0u);
    EXPECT_GE(n.distance, before.back().distance);
  }
}

TEST(DeleteTest, InterleavedInsertDeleteChurn) {
  SimulatedDisk disk(0);
  RStarTree tree(4, &disk);
  Rng rng(609);
  const PointSet pool = GenerateUniform(5000, 4, 611);
  std::set<PointId> live;
  for (int op = 0; op < 8000; ++op) {
    const bool insert = live.empty() || rng.NextBernoulli(0.6);
    if (insert) {
      const PointId id = static_cast<PointId>(rng.NextBounded(pool.size()));
      if (live.count(id)) continue;
      ASSERT_TRUE(tree.Insert(pool[id], id).ok());
      live.insert(id);
    } else {
      const std::size_t pick = rng.NextBounded(live.size());
      auto it = live.begin();
      std::advance(it, static_cast<std::ptrdiff_t>(pick));
      ASSERT_TRUE(tree.Delete(pool[*it], *it).ok());
      live.erase(it);
    }
  }
  EXPECT_EQ(tree.size(), live.size());
  ASSERT_TRUE(tree.ValidateInvariants().ok());
  auto hits = tree.RangeQuery(Rect::UnitCube(4));
  std::sort(hits.begin(), hits.end());
  std::vector<PointId> expected(live.begin(), live.end());
  EXPECT_EQ(hits, expected);
}

TEST(DeleteTest, DuplicatePointsDeleteById) {
  SimulatedDisk disk(0);
  RStarTree tree(2, &disk);
  const Point p = {0.5f, 0.5f};
  for (PointId id = 0; id < 300; ++id) ASSERT_TRUE(tree.Insert(p, id).ok());
  ASSERT_TRUE(tree.Delete(p, 150).ok());
  EXPECT_EQ(tree.size(), 299u);
  EXPECT_FALSE(tree.Contains(p, 150));
  EXPECT_TRUE(tree.Contains(p, 149));
  ASSERT_TRUE(tree.ValidateInvariants().ok());
}

TEST(DeleteTest, EngineRemoveAcrossArchitectures) {
  const PointSet data = GenerateUniform(2000, 4, 613);
  for (Architecture arch :
       {Architecture::kSharedTree, Architecture::kFederatedTrees,
        Architecture::kFederatedScan}) {
    EngineOptions options;
    options.architecture = arch;
    ParallelSearchEngine engine(
        4, std::make_unique<NearOptimalDeclusterer>(4, 4), options);
    ASSERT_TRUE(engine.Build(data).ok());
    // Remove point 42; it must vanish from query results.
    ASSERT_TRUE(engine.Remove(data[42], 42).ok());
    EXPECT_EQ(engine.size(), 1999u);
    const KnnResult result = engine.Query(data[42], 1);
    ASSERT_EQ(result.size(), 1u);
    EXPECT_NE(result[0].id, 42u);
    // Double-remove reports not found.
    EXPECT_EQ(engine.Remove(data[42], 42).code(), StatusCode::kNotFound);
  }
}

TEST(DeleteTest, EngineRemoveThenReinsert) {
  const PointSet data = GenerateUniform(1000, 3, 617);
  ParallelSearchEngine engine(3,
                              std::make_unique<NearOptimalDeclusterer>(3, 4));
  ASSERT_TRUE(engine.Build(data).ok());
  ASSERT_TRUE(engine.Remove(data[7], 7).ok());
  ASSERT_TRUE(engine.Insert(data[7], 7).ok());
  const KnnResult result = engine.Query(data[7], 1);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].id, 7u);
  EXPECT_EQ(result[0].distance, 0.0);
}

}  // namespace
}  // namespace parsim
