// SoA leaf blocks and directory images vs the AoS entries they mirror.
//
// Every query path (HsKnn, RkvKnn, RangeQuery, BallQuery, the batched
// scheduler, the join) reads a leaf page through its node's LeafBlock
// instead of the per-entry rects, so these properties pin the contract
// that rests on: blocks are bitwise mirrors of their leaves, kernel
// sweeps over them are bitwise equal to per-entry distance calls, every
// query kind returns bit-identical answers to a linear-scan oracle, and
// every write rebuilds the blocks of the leaves it changes. The
// directory side has the same contract: every directory node's image
// (DirImage) equals a fresh build from its entries after every write
// and after LoadTree, and ValidateInvariants rejects a stale block or
// image.

#include "src/index/node.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/index/knn.h"
#include "src/index/rstar_tree.h"
#include "src/index/serialize.h"
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

/// Every node in the node table — reachable or dissolved — holds the
/// derived state of its entries, bit for bit: a leaf its block (SQ8
/// mirror included when the tree quantizes; a dissolved leaf's block is
/// empty) and no image, a directory node its image and no block.
void ExpectDerivedStateFresh(const TreeBase& tree) {
  for (NodeId id = 0; id < tree.num_nodes(); ++id) {
    const Node& node = tree.PeekNode(id);
    if (node.IsLeaf()) {
      EXPECT_EQ(node.image.count(), 0u) << "leaf " << id;
      LeafBlock fresh;
      fresh.BuildFrom(node.entries, tree.dim(), tree.quantized_leaf_blocks());
      EXPECT_TRUE(node.block == fresh) << "leaf " << id;
      continue;
    }
    EXPECT_TRUE(node.block == LeafBlock{}) << "directory node " << id;
    DirImage fresh;
    fresh.BuildFrom(node.entries, tree.dim());
    EXPECT_TRUE(node.image == fresh) << "directory node " << id;
  }
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
    const LeafBlock& block = leaf.block;
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
      const LeafBlock& block = tree.AccessNode(leaf_id).block;
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

// Insert and Delete rebuild only the blocks of the leaves they change,
// so a leaf they miss would keep its old block. A seeded run of writes
// grows a root leaf into a two-level tree, condenses it back and empties
// it; after every write every node's block (with its SQ8 mirror) must
// equal a fresh build, the dissolved leaves' empty blocks included.
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
      ExpectDerivedStateFresh(*tree);
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

/// Counts SplitNode calls by level, so a run can show that it split
/// directory nodes and not only leaves.
template <typename Tree>
class SplitCountingTree : public Tree {
 public:
  using Tree::Tree;
  std::size_t leaf_splits = 0;
  std::size_t dir_splits = 0;

 protected:
  NodeId SplitNode(NodeId node_id) override {
    ++(this->PeekNode(node_id).IsLeaf() ? leaf_splits : dir_splits);
    return Tree::SplitNode(node_id);
  }
};

/// The directory nodes reachable from the root.
std::vector<NodeId> CollectDirectories(const TreeBase& tree) {
  std::vector<NodeId> dirs;
  if (tree.root_id() == kInvalidNodeId) return dirs;
  std::vector<NodeId> stack{tree.root_id()};
  while (!stack.empty()) {
    const Node& node = tree.PeekNode(stack.back());
    stack.pop_back();
    if (node.IsLeaf()) continue;
    dirs.push_back(node.id);
    for (const NodeEntry& e : node.entries) stack.push_back(e.child);
  }
  return dirs;
}

/// What one RunDirectoryImageWrites run went through.
struct WriteRunStats {
  int max_height = 0;
  std::size_t dir_splits = 0;
  std::size_t forced_reinserts = 0;
  std::size_t supernodes = 0;  // at the end of the growth phase
  std::size_t shrinks = 0;     // writes that lowered the height
};

/// One seeded write run at d=64, where a directory page holds 7 entries
/// and a leaf 15, so two thousand inserts reach height 4 and exercise
/// the directory edits: leaf and directory splits, forced reinserts,
/// root growth above a directory, X-tree supernodes, CondenseTree's
/// unhooks and MBR tightening, and root shrinkage back to a leaf and to
/// an empty tree. After every write each directory image and leaf block
/// (SQ8 mirror included) must equal a fresh build; mid-run, a
/// SaveTree/LoadTree round trip must rebuild the same images and blocks.
template <typename Tree, typename Options>
WriteRunStats RunDirectoryImageWrites(const Options& options) {
  const std::size_t dim = 64;
  const std::size_t n = 2000;
  // One dense Gaussian blob, so directory MBRs overlap.
  const PointSet data = GenerateClusteredGaussian(n, dim, 1, 0.02, 7411);
  SimulatedDisk disk(0);
  SplitCountingTree<Tree> tree(dim, &disk, options);
  tree.set_quantized_leaf_blocks(true);
  WriteRunStats stats;

  std::size_t writes = 0;
  const auto write = [&](bool insert, PointId id) {
    ++writes;
    const std::size_t splits_before = tree.leaf_splits + tree.dir_splits;
    const int height_before = tree.height();
    const Status s = insert ? tree.Insert(data[id], id)
                            : tree.Delete(data[id], id);
    EXPECT_TRUE(s.ok()) << s.ToString();
    // Without a split, an insert changes one leaf unless a forced
    // reinsert moved entries out of it into other leaves.
    const std::set<NodeId> leaves(tree.changed_leaves().begin(),
                                  tree.changed_leaves().end());
    if (insert && tree.leaf_splits + tree.dir_splits == splits_before &&
        leaves.size() > 1) {
      ++stats.forced_reinserts;
    }
    if (tree.height() < height_before) ++stats.shrinks;
    ExpectDerivedStateFresh(tree);
    return !::testing::Test::HasFailure();
  };

  // Grow, deleting a random live point after about every fourth insert.
  Rng rng(7413);
  std::vector<PointId> live;
  for (std::size_t i = 0; i < n; ++i) {
    if (!write(/*insert=*/true, static_cast<PointId>(i))) {
      ADD_FAILURE() << "after write " << writes;
      return stats;
    }
    live.push_back(static_cast<PointId>(i));
    stats.max_height = std::max(stats.max_height, tree.height());
    if (rng.NextBernoulli(0.25)) {
      const std::size_t victim = rng.NextBounded(live.size());
      if (!write(/*insert=*/false, live[victim])) {
        ADD_FAILURE() << "after write " << writes;
        return stats;
      }
      live[victim] = live.back();
      live.pop_back();
    }
  }
  stats.dir_splits = tree.dir_splits;
  stats.supernodes = tree.ComputeStats().num_supernodes;
  EXPECT_TRUE(tree.ValidateInvariants().ok());

  // LoadTree builds the images and blocks from the loaded entries: each
  // reachable node's must equal the source tree's.
  // One file per test: ctest runs the tests of this binary in parallel.
  const std::string path =
      ::testing::TempDir() + "/parsim_dir_images_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".tree";
  EXPECT_TRUE(SaveTree(tree, path).ok());
  SimulatedDisk loaded_disk(1);
  Tree loaded(dim, &loaded_disk, options);
  loaded.set_quantized_leaf_blocks(true);
  EXPECT_TRUE(LoadTree(&loaded, path).ok());
  std::remove(path.c_str());
  const std::vector<NodeId> dirs = CollectDirectories(tree);
  EXPECT_FALSE(dirs.empty());
  EXPECT_EQ(CollectDirectories(loaded), dirs);
  for (const NodeId id : dirs) {
    EXPECT_TRUE(loaded.PeekNode(id).image == tree.PeekNode(id).image)
        << "directory node " << id;
  }
  const std::vector<NodeId> leaves = CollectLeaves(tree);
  EXPECT_EQ(CollectLeaves(loaded), leaves);
  for (const NodeId id : leaves) {
    EXPECT_TRUE(loaded.PeekNode(id).block == tree.PeekNode(id).block)
        << "leaf " << id;
  }
  ExpectDerivedStateFresh(loaded);

  // Condense: delete every live point; the tree shrinks to one leaf and
  // then to nothing, and a fresh root leaf takes the next insert.
  rng.Shuffle(&live);
  for (const PointId id : live) {
    if (!write(/*insert=*/false, id)) {
      ADD_FAILURE() << "after write " << writes;
      return stats;
    }
  }
  EXPECT_EQ(tree.height(), 0);
  EXPECT_TRUE(write(/*insert=*/true, 0));
  EXPECT_EQ(tree.height(), 1);
  EXPECT_TRUE(tree.ValidateInvariants().ok());
  return stats;
}

TEST(DirectoryImageTest, XTreeWritesKeepEveryImageExact) {
  const WriteRunStats stats = RunDirectoryImageWrites<XTree>(XTreeOptions{});
  EXPECT_GE(stats.max_height, 3) << "no directory root ever split";
  EXPECT_GT(stats.dir_splits, 0u);
  EXPECT_GT(stats.forced_reinserts, 0u);
  EXPECT_GE(stats.shrinks, 2u) << "the root never shrank";
}

TEST(DirectoryImageTest, XTreeSupernodeWritesKeepEveryImageExact) {
  // Only overlap-free directory splits are accepted, so every directory
  // overflow grows the root into a supernode wider than one page.
  XTreeOptions options;
  options.max_overlap = 0.0;
  const WriteRunStats stats = RunDirectoryImageWrites<XTree>(options);
  EXPECT_GT(stats.supernodes, 0u);
  EXPECT_GT(stats.forced_reinserts, 0u);
  EXPECT_GE(stats.shrinks, 2u) << "the root never shrank";
}

TEST(DirectoryImageTest, RStarTreeWritesKeepEveryImageExact) {
  const WriteRunStats stats =
      RunDirectoryImageWrites<RStarTree>(TreeOptions{});
  EXPECT_GE(stats.max_height, 3) << "no directory root ever split";
  EXPECT_GT(stats.dir_splits, 0u);
  EXPECT_GT(stats.forced_reinserts, 0u);
  EXPECT_GE(stats.shrinks, 2u) << "the root never shrank";
}

TEST(DirectoryImageTest, RStarTreeWithoutForcedReinsertKeepsEveryImageExact) {
  // Without forced reinsert an overflowing node splits at once, so a
  // split's parent may have no other entry change in that write: only
  // the split registration itself marks its image stale.
  TreeOptions options;
  options.forced_reinsert = false;
  const WriteRunStats stats = RunDirectoryImageWrites<RStarTree>(options);
  EXPECT_GE(stats.max_height, 3) << "no directory root ever split";
  EXPECT_GT(stats.dir_splits, 0u);
  EXPECT_EQ(stats.forced_reinserts, 0u);
  EXPECT_GE(stats.shrinks, 2u) << "the root never shrank";
}

/// Exposes MutableNode so a test can corrupt an image or block in place.
class ImageEditingTree : public RStarTree {
 public:
  using RStarTree::RStarTree;
  Node& Edit(NodeId id) { return MutableNode(id); }
};

TEST(DirectoryImageTest, ValidateInvariantsRejectsAStaleImage) {
  const std::size_t dim = 6;
  const PointSet data = GenerateUniform(3000, dim, 7417);
  SimulatedDisk disk(0);
  ImageEditingTree tree(dim, &disk);
  ASSERT_TRUE(tree.BulkLoad(data).ok());
  ASSERT_GE(tree.height(), 2);
  ASSERT_TRUE(tree.ValidateInvariants().ok());
  Node& root = tree.Edit(tree.root_id());
  ASSERT_GE(root.image.count(), 2u);

  // One bound one float step off.
  Scalar& bound = root.image.bounds[root.image.bounds.size() - 1];
  const Scalar saved = bound;
  bound = std::nextafter(bound, 2.0f);
  const Status stale = tree.ValidateInvariants();
  EXPECT_EQ(stale.code(), StatusCode::kInternal);
  EXPECT_NE(stale.message().find("image"), std::string::npos)
      << stale.message();
  bound = saved;
  EXPECT_TRUE(tree.ValidateInvariants().ok());

  // Two children swapped in the image only.
  std::swap(root.image.children[0], root.image.children[1]);
  EXPECT_EQ(tree.ValidateInvariants().code(), StatusCode::kInternal);
  std::swap(root.image.children[0], root.image.children[1]);
  EXPECT_TRUE(tree.ValidateInvariants().ok());
}

TEST(LeafBlockTest, ValidateInvariantsRejectsAStaleBlock) {
  const std::size_t dim = 6;
  const PointSet data = GenerateUniform(3000, dim, 7419);
  SimulatedDisk disk(0);
  ImageEditingTree tree(dim, &disk);
  tree.set_quantized_leaf_blocks(true);
  ASSERT_TRUE(tree.BulkLoad(data).ok());
  ASSERT_TRUE(tree.ValidateInvariants().ok());
  const std::vector<NodeId> leaves = CollectLeaves(tree);
  ASSERT_GE(leaves.size(), 2u);
  LeafBlock& block = tree.Edit(leaves.back()).block;
  ASSERT_GE(block.count, 2u);
  ASSERT_TRUE(block.has_sq8);

  // Each corruption must be reported as a stale block, then undone.
  const auto expect_stale = [&](const char* what) {
    const Status stale = tree.ValidateInvariants();
    EXPECT_EQ(stale.code(), StatusCode::kInternal) << what;
    EXPECT_NE(stale.message().find("block"), std::string::npos)
        << what << ": " << stale.message();
  };
  // One coordinate one float step off.
  Scalar& coord = block.coords.back();
  const Scalar saved = coord;
  coord = std::nextafter(coord, 2.0f);
  expect_stale("coordinate");
  coord = saved;
  EXPECT_TRUE(tree.ValidateInvariants().ok());

  // Two ids swapped in the block only.
  std::swap(block.ids[0], block.ids[1]);
  expect_stale("ids");
  std::swap(block.ids[0], block.ids[1]);
  EXPECT_TRUE(tree.ValidateInvariants().ok());

  // The SQ8 mirror: one code, then one error bound.
  block.sq8.codes[0] ^= 1;
  expect_stale("code");
  block.sq8.codes[0] ^= 1;
  const double err = block.sq8.err[0];
  block.sq8.err[0] = std::nextafter(err, 1.0);
  expect_stale("error bound");
  block.sq8.err[0] = err;
  EXPECT_TRUE(tree.ValidateInvariants().ok());

  // A block built without its mirror.
  block.BuildFrom(tree.PeekNode(leaves.back()).entries, dim,
                  /*quantize=*/false);
  expect_stale("mirror");
  tree.set_quantized_leaf_blocks(true);
  EXPECT_TRUE(tree.ValidateInvariants().ok());
}

INSTANTIATE_TEST_SUITE_P(Dims, LeafBlockPropertyTest,
                         ::testing::Values(2, 3, 4, 6, 8, 11, 13, 16),
                         [](const auto& info) {
                           return "d" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace parsim
