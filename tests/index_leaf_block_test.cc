// SoA leaf blocks vs the AoS entry layout they mirror.
//
// The refactored query paths (HsKnn, RangeQuery, BallQuery, the batched
// scheduler) read leaf pages through LeafBlockOf() instead of the
// per-entry rects, so these properties pin the contract the whole PR
// rests on: blocks are bitwise mirrors of their leaves, kernel sweeps
// over them are bitwise equal to per-entry distance calls, every query
// kind returns bit-identical answers to a pre-SoA oracle, and mutations
// invalidate stale blocks.

#include "src/index/leaf_block.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "src/index/knn.h"
#include "src/index/rstar_tree.h"
#include "src/index/xtree.h"
#include "src/util/random.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

/// Every (tree, brute-force) answer must match bit for bit: same ids in
/// the same order is too strict only at ties, so distances compare
/// exactly and ids as sets.
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

/// Collects every leaf id reachable from the root.
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

class LeafBlockPropertyTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LeafBlockPropertyTest, BlocksMirrorLeafEntriesBitwise) {
  const std::size_t dim = GetParam();
  const PointSet data = GenerateUniform(700, dim, 7001 + dim);
  SimulatedDisk disk(0);
  XTree tree(dim, &disk);
  ASSERT_TRUE(tree.BulkLoad(data).ok());

  for (const NodeId leaf_id : CollectLeaves(tree)) {
    const Node& leaf = tree.AccessNode(leaf_id);
    const LeafBlock& block = tree.LeafBlockOf(leaf);
    ASSERT_EQ(block.count, leaf.entries.size());
    ASSERT_EQ(block.dim, dim);
    for (std::size_t i = 0; i < block.count; ++i) {
      EXPECT_EQ(block.ids[i], leaf.entries[i].child);
      // Leaf entries store points as degenerate rects; the block must
      // carry the identical scalars.
      for (std::size_t d = 0; d < dim; ++d) {
        EXPECT_EQ(block.coords[i * dim + d], leaf.entries[i].rect.lo(d));
      }
    }
  }
}

TEST_P(LeafBlockPropertyTest, KernelSweepMatchesPerEntryDistances) {
  const std::size_t dim = GetParam();
  const PointSet data = GenerateUniform(500, dim, 7101 + dim);
  const PointSet queries = GenerateUniformQueries(4, dim, 7103 + dim);
  SimulatedDisk disk(0);
  XTree tree(dim, &disk);
  ASSERT_TRUE(tree.BulkLoad(data).ok());

  for (const MetricKind kind :
       {MetricKind::kL1, MetricKind::kL2, MetricKind::kLmax}) {
    const Metric metric(kind);
    for (const NodeId leaf_id : CollectLeaves(tree)) {
      const Node& leaf = tree.AccessNode(leaf_id);
      const LeafBlock& block = tree.LeafBlockOf(leaf);
      std::vector<double> swept(block.count);
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        metric.ComparableMany(queries[qi], block.coords.data(), block.count,
                              dim, swept.data());
        for (std::size_t i = 0; i < block.count; ++i) {
          EXPECT_EQ(swept[i], metric.Comparable(queries[qi], block.row(i)))
              << "metric " << static_cast<int>(kind) << " point " << i;
        }
      }
    }
  }
}

TEST_P(LeafBlockPropertyTest, QueriesMatchOracleOnBulkLoadedTree) {
  const std::size_t dim = GetParam();
  const PointSet data = GenerateUniform(800, dim, 7201 + dim);
  const PointSet queries = GenerateUniformQueries(6, dim, 7203 + dim);
  SimulatedDisk disk(0);
  XTree tree(dim, &disk);
  ASSERT_TRUE(tree.BulkLoad(data).ok());

  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    SCOPED_TRACE("query " + std::to_string(qi));
    // k-NN through the SoA sweep vs the linear-scan oracle.
    ExpectBitIdentical(HsKnn(tree, queries[qi], 8),
                       BruteForceKnn(data, queries[qi], 8));
    // Ball query (same leaf path, threshold semantics).
    ExpectBitIdentical(BallQuery(tree, queries[qi], 0.4),
                       BruteForceBallQuery(data, queries[qi], 0.4));
  }
}

TEST_P(LeafBlockPropertyTest, RangeAndPartialMatchQueriesMatchScan) {
  const std::size_t dim = GetParam();
  const PointSet data = GenerateUniform(800, dim, 7301 + dim);
  SimulatedDisk disk(0);
  XTree tree(dim, &disk);
  ASSERT_TRUE(tree.BulkLoad(data).ok());

  const auto expect_matches_scan = [&](const Rect& query) {
    std::vector<PointId> got = tree.RangeQuery(query);
    std::vector<PointId> want;
    for (std::size_t i = 0; i < data.size(); ++i) {
      if (query.Contains(data[i])) want.push_back(static_cast<PointId>(i));
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
    EXPECT_FALSE(want.empty());  // the windows below are wide enough
  };

  // Full range query: a wide window (0.9^16 of the space still holds
  // ~150 of the 800 points, so the check never goes vacuous).
  {
    std::vector<Scalar> lo(dim, 0.05f), hi(dim, 0.95f);
    expect_matches_scan(Rect(std::move(lo), std::move(hi)));
  }
  // Partial-match query: only every other dimension is constrained, the
  // rest stay at the full domain — the classic "some attributes given"
  // similarity query, exercised through the same leaf sweep.
  {
    std::vector<Scalar> lo(dim, 0.0f), hi(dim, 1.0f);
    for (std::size_t d = 0; d < dim; d += 2) {
      lo[d] = 0.15f;
      hi[d] = 0.85f;
    }
    expect_matches_scan(Rect(std::move(lo), std::move(hi)));
  }
}

/// A cached block must equal a fresh build of the same leaf field by
/// field: floats, ids, and the SQ8 lattice and codes.
void ExpectSameBlock(const LeafBlock& got, const LeafBlock& want) {
  ASSERT_EQ(got.count, want.count);
  ASSERT_EQ(got.dim, want.dim);
  EXPECT_EQ(got.coords, want.coords);
  EXPECT_EQ(got.ids, want.ids);
  ASSERT_EQ(got.has_sq8, want.has_sq8);
  EXPECT_EQ(got.sq8.count, want.sq8.count);
  EXPECT_EQ(got.sq8.dim, want.sq8.dim);
  EXPECT_EQ(got.sq8.scale, want.sq8.scale);
  EXPECT_EQ(got.sq8.lo, want.sq8.lo);
  EXPECT_EQ(got.sq8.err, want.sq8.err);
  EXPECT_EQ(got.sq8.codes, want.sq8.codes);
}

// Insert and Delete mark stale only the blocks of the leaves they change,
// so a leaf they miss would serve its old block. A seeded run of writes
// grows a root leaf into a two-level tree, condenses it back and empties
// it; before every write each reachable leaf's block (with its SQ8
// mirror) is cached, and after it each must equal a fresh build.
TEST_P(LeafBlockPropertyTest, InsertAndDeleteInvalidateCachedBlocks) {
  const std::size_t dim = GetParam();
  const std::size_t cap = LeafCapacityPerPage(dim);
  // cap / 2 base points fill the root leaf halfway; the stream's inserts
  // must split it. Once the stream is deleted again, cap / 2 points are
  // too few for two leaves at minimum fill, so the tree must condense
  // back to one level.
  const std::size_t num_base = cap / 2;
  const PointSet data = GenerateUniform(num_base + cap, dim, 7401 + dim);
  for (const bool use_xtree : {true, false}) {
    SCOPED_TRACE(use_xtree ? "XTree" : "RStarTree");
    SimulatedDisk disk(0);
    std::unique_ptr<TreeBase> tree;
    if (use_xtree) {
      tree = std::make_unique<XTree>(dim, &disk);
    } else {
      tree = std::make_unique<RStarTree>(dim, &disk);
    }
    tree->set_quantized_leaf_blocks(true);
    for (std::size_t i = 0; i < num_base; ++i) {
      ASSERT_TRUE(tree->Insert(data[i], static_cast<PointId>(i)).ok());
    }
    ASSERT_EQ(tree->height(), 1);

    std::size_t writes = 0;
    const auto check = [&] {
      for (const NodeId leaf_id : CollectLeaves(*tree)) {
        const Node& leaf = tree->PeekNode(leaf_id);
        LeafBlock fresh;
        fresh.BuildFrom(leaf, dim, /*quantize=*/true);
        ExpectSameBlock(tree->LeafBlockOf(leaf), fresh);
      }
      ASSERT_FALSE(::testing::Test::HasFailure()) << "after write " << writes;
    };
    const auto write = [&](bool insert, PointId id) {
      ++writes;
      const Status s = insert ? tree->Insert(data[id], id)
                              : tree->Delete(data[id], id);
      ASSERT_TRUE(s.ok()) << s.ToString();
      check();
    };
    check();

    // Grow: insert the stream, deleting a random live stream point after
    // about every fourth insert.
    Rng rng(7403 + dim);
    std::vector<PointId> live;
    int max_height = tree->height();
    const std::size_t nodes_before = tree->num_nodes();
    for (std::size_t i = num_base; i < data.size(); ++i) {
      write(/*insert=*/true, static_cast<PointId>(i));
      live.push_back(static_cast<PointId>(i));
      max_height = std::max(max_height, tree->height());
      if (rng.NextBernoulli(0.25)) {
        const std::size_t victim = rng.NextBounded(live.size());
        write(/*insert=*/false, live[victim]);
        live[victim] = live.back();
        live.pop_back();
      }
    }
    EXPECT_GE(max_height, 2) << "the root leaf never split";
    EXPECT_GT(tree->num_nodes(), nodes_before + 1);

    // Condense: delete the rest of the stream in seeded order. Deleting
    // an already deleted record is NotFound and must change nothing.
    rng.Shuffle(&live);
    for (std::size_t i = 0; i < live.size(); ++i) {
      write(/*insert=*/false, live[i]);
      if (i % 8 == 0) {
        EXPECT_EQ(tree->Delete(data[live[i]], live[i]).code(),
                  StatusCode::kNotFound);
        EXPECT_TRUE(tree->changed_leaves().empty());
        check();
      }
    }
    EXPECT_EQ(tree->height(), 1) << "the tree never condensed";

    // Empty the tree, then insert into a fresh root leaf.
    for (std::size_t i = 0; i < num_base; ++i) {
      write(/*insert=*/false, static_cast<PointId>(i));
    }
    EXPECT_EQ(tree->height(), 0);
    write(/*insert=*/true, 0);
    EXPECT_EQ(tree->height(), 1);
    EXPECT_TRUE(tree->ValidateInvariants().ok());
    const KnnResult nearest = HsKnn(*tree, data[0], 1);
    ASSERT_EQ(nearest.size(), 1u);
    EXPECT_EQ(nearest[0].id, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Dims, LeafBlockPropertyTest,
                         ::testing::Values(2, 3, 4, 6, 8, 11, 13, 16),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace parsim
