#include <algorithm>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "src/index/rstar_tree.h"
#include "src/index/xtree.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

TEST(BulkLoadTest, EmptyInputIsOk) {
  SimulatedDisk disk(0);
  RStarTree tree(3, &disk);
  EXPECT_TRUE(tree.BulkLoad(PointSet(3)).ok());
  EXPECT_TRUE(tree.empty());
}

TEST(BulkLoadTest, RequiresEmptyTree) {
  SimulatedDisk disk(0);
  RStarTree tree(2, &disk);
  ASSERT_TRUE(tree.Insert(Point({0.5f, 0.5f}), 0).ok());
  const PointSet data = GenerateUniform(10, 2, 87);
  EXPECT_EQ(tree.BulkLoad(data).code(), StatusCode::kFailedPrecondition);
}

TEST(BulkLoadTest, DimensionMismatchRejected) {
  SimulatedDisk disk(0);
  RStarTree tree(3, &disk);
  const PointSet data = GenerateUniform(10, 2, 89);
  EXPECT_EQ(tree.BulkLoad(data).code(), StatusCode::kInvalidArgument);
}

TEST(BulkLoadTest, IdsVectorSizeMustMatch) {
  SimulatedDisk disk(0);
  RStarTree tree(2, &disk);
  const PointSet data = GenerateUniform(10, 2, 91);
  const std::vector<PointId> ids = {1, 2, 3};
  EXPECT_EQ(tree.BulkLoad(data, &ids).code(), StatusCode::kInvalidArgument);
}

// A NaN or infinite coordinate fails the load before any node is
// allocated or page written, for both tree kinds and packing orders, and
// the tree stays empty, so a later load of finite points succeeds.
TEST(BulkLoadTest, NonFiniteCoordinatesRejectedAndTreeStaysEmpty) {
  const std::size_t dim = 4;
  const PointSet good = GenerateUniform(3000, dim, 97);
  const Scalar bad_values[] = {std::numeric_limits<Scalar>::quiet_NaN(),
                               std::numeric_limits<Scalar>::infinity(),
                               -std::numeric_limits<Scalar>::infinity()};
  for (const bool xtree : {true, false}) {
    for (const BulkLoadOrder order :
         {BulkLoadOrder::kHilbert, BulkLoadOrder::kStr}) {
      for (const Scalar bad : bad_values) {
        SCOPED_TRACE(std::string(xtree ? "xtree" : "rstar") +
                     (order == BulkLoadOrder::kStr ? " str " : " hilbert ") +
                     std::to_string(bad));
        SimulatedDisk disk(0);
        XTreeOptions options;
        options.bulk_load_order = order;
        std::unique_ptr<TreeBase> tree;
        if (xtree) {
          tree = std::make_unique<XTree>(dim, &disk, options);
        } else {
          tree = std::make_unique<RStarTree>(dim, &disk, options);
        }
        PointSet poisoned = good;
        poisoned.Mutable(1234)[2] = bad;
        EXPECT_EQ(tree->BulkLoad(poisoned).code(),
                  StatusCode::kInvalidArgument);
        EXPECT_TRUE(tree->empty());
        EXPECT_EQ(tree->num_nodes(), 0u);
        EXPECT_EQ(tree->root_id(), kInvalidNodeId);
        EXPECT_EQ(disk.stats().pages_written, 0u);
        ASSERT_TRUE(tree->BulkLoad(good).ok());
        EXPECT_EQ(tree->size(), good.size());
        EXPECT_TRUE(tree->ValidateInvariants().ok());
      }
    }
  }
}

TEST(BulkLoadTest, StructureValidAndComplete) {
  SimulatedDisk disk(0);
  RStarTree tree(6, &disk);
  const PointSet data = GenerateUniform(20000, 6, 93);
  ASSERT_TRUE(tree.BulkLoad(data).ok());
  EXPECT_EQ(tree.size(), 20000u);
  ASSERT_TRUE(tree.ValidateInvariants().ok());
  EXPECT_GE(tree.height(), 2);
  const auto stats = tree.ComputeStats();
  // Packed at ~70% fill.
  EXPECT_GT(stats.avg_leaf_fill, 0.6);
}

TEST(BulkLoadTest, DefaultIdsArePositions) {
  SimulatedDisk disk(0);
  RStarTree tree(2, &disk);
  const PointSet data = GenerateUniform(500, 2, 95);
  ASSERT_TRUE(tree.BulkLoad(data).ok());
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_TRUE(tree.Contains(data[i], static_cast<PointId>(i)));
  }
}

TEST(BulkLoadTest, ExplicitIdsRespected) {
  SimulatedDisk disk(0);
  RStarTree tree(2, &disk);
  PointSet data(2);
  std::vector<PointId> ids;
  for (int i = 0; i < 300; ++i) {
    data.Add(Point({static_cast<Scalar>(i) / 300, 0.5f}));
    ids.push_back(static_cast<PointId>(1000 + i * 2));
  }
  ASSERT_TRUE(tree.BulkLoad(data, &ids).ok());
  for (int i = 0; i < 300; i += 37) {
    EXPECT_TRUE(
        tree.Contains(data[static_cast<std::size_t>(i)], ids[static_cast<std::size_t>(i)]));
    EXPECT_FALSE(
        tree.Contains(data[static_cast<std::size_t>(i)], ids[static_cast<std::size_t>(i)] + 1));
  }
}

TEST(BulkLoadTest, RangeQueriesMatchBruteForce) {
  SimulatedDisk disk(0);
  XTree tree(4, &disk);
  const PointSet data = GenerateUniform(10000, 4, 97);
  ASSERT_TRUE(tree.BulkLoad(data).ok());
  Rng rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Scalar> lo(4), hi(4);
    for (std::size_t j = 0; j < 4; ++j) {
      const double a = rng.NextDouble(), b = rng.NextDouble();
      lo[j] = static_cast<Scalar>(std::min(a, b));
      hi[j] = static_cast<Scalar>(std::max(a, b));
    }
    const Rect query(std::move(lo), std::move(hi));
    auto got = tree.RangeQuery(query);
    std::vector<PointId> expected;
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (query.Contains(data[i])) expected.push_back(static_cast<PointId>(i));
    }
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
  }
}

TEST(BulkLoadTest, HilbertPackingClustersSpatially) {
  // Hilbert packing should give far fewer leaf overlaps than random
  // insertion order would pack sequentially: proxy check, average leaf
  // MBR volume is small.
  SimulatedDisk disk(0);
  RStarTree tree(2, &disk);
  const PointSet data = GenerateUniform(20000, 2, 101);
  ASSERT_TRUE(tree.BulkLoad(data).ok());
  const auto stats = tree.ComputeStats();
  // ~94 points per leaf over 20000 points -> ~213 leaves; a spatially
  // clustered leaf covers ~1/213 of the space. Allow 5x slack.
  double total_volume = 0.0;
  std::vector<NodeId> stack = {tree.root_id()};
  std::size_t leaves = 0;
  while (!stack.empty()) {
    const Node& node = tree.PeekNode(stack.back());
    stack.pop_back();
    if (node.IsLeaf()) {
      total_volume += node.ComputeMbr(2).Volume();
      ++leaves;
    } else {
      for (const NodeEntry& e : node.entries) stack.push_back(e.child);
    }
  }
  ASSERT_GT(leaves, 0u);
  EXPECT_LT(total_volume / static_cast<double>(leaves),
            5.0 / static_cast<double>(leaves));
}

TEST(BulkLoadTest, StrOrderProducesValidTree) {
  SimulatedDisk disk(0);
  TreeOptions options;
  options.bulk_load_order = BulkLoadOrder::kStr;
  RStarTree tree(5, &disk, options);
  const PointSet data = GenerateUniform(15000, 5, 151);
  ASSERT_TRUE(tree.BulkLoad(data).ok());
  EXPECT_EQ(tree.size(), 15000u);
  ASSERT_TRUE(tree.ValidateInvariants().ok());
  EXPECT_GT(tree.ComputeStats().avg_leaf_fill, 0.6);
  // Query correctness.
  const auto hits = tree.RangeQuery(Rect({0.0f, 0.0f, 0.0f, 0.0f, 0.0f},
                                         {0.5f, 0.5f, 0.5f, 0.5f, 0.5f}));
  std::size_t expected = 0;
  for (std::size_t i = 0; i < data.size(); ++i) {
    bool inside = true;
    for (std::size_t j = 0; j < 5; ++j) {
      if (data[i][j] > 0.5f) {
        inside = false;
        break;
      }
    }
    if (inside) ++expected;
  }
  EXPECT_EQ(hits.size(), expected);
}

TEST(BulkLoadTest, StrPacksLowDimensionsTightly) {
  // In 2-d STR's tiles are near-square: total leaf MBR volume must be
  // within a small factor of the ideal 1/leaves each.
  SimulatedDisk disk(0);
  TreeOptions options;
  options.bulk_load_order = BulkLoadOrder::kStr;
  RStarTree tree(2, &disk, options);
  const PointSet data = GenerateUniform(20000, 2, 153);
  ASSERT_TRUE(tree.BulkLoad(data).ok());
  double total_volume = 0.0;
  std::size_t leaves = 0;
  std::vector<NodeId> stack = {tree.root_id()};
  while (!stack.empty()) {
    const Node& node = tree.PeekNode(stack.back());
    stack.pop_back();
    if (node.IsLeaf()) {
      total_volume += node.ComputeMbr(2).Volume();
      ++leaves;
    } else {
      for (const NodeEntry& e : node.entries) stack.push_back(e.child);
    }
  }
  ASSERT_GT(leaves, 0u);
  EXPECT_LT(total_volume, 5.0) << "tiles must not overlap wildly";
}

TEST(BulkLoadTest, SmallInputsAllSizes) {
  // Edge sizes around capacity boundaries must produce valid trees.
  for (std::size_t n : {1u, 2u, 5u, 63u, 64u, 65u, 340u, 341u, 342u, 1000u}) {
    SimulatedDisk disk(0);
    RStarTree tree(2, &disk);
    const PointSet data = GenerateUniform(n, 2, 103 + n);
    ASSERT_TRUE(tree.BulkLoad(data).ok()) << "n=" << n;
    EXPECT_EQ(tree.size(), n);
    EXPECT_TRUE(tree.ValidateInvariants().ok()) << "n=" << n;
    EXPECT_EQ(tree.RangeQuery(Rect::UnitCube(2)).size(), n);
  }
}

}  // namespace
}  // namespace parsim
