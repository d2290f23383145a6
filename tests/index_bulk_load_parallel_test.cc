// Parallel bulk load property suite: a tree built with a thread pool —
// any thread count — must be BIT-IDENTICAL to the serial build. Node
// layout, levels, page counts, entry order, Rect coordinates, simulated
// disk accounting and query answers are all compared exactly; duplicate
// points force sort-key ties so the index tiebreaks are actually load
// bearing. Runs under the TSAN lane in tools/ci.sh.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/near_optimal.h"
#include "src/hilbert/hilbert.h"
#include "src/index/knn.h"
#include "src/index/rstar_tree.h"
#include "src/index/xtree.h"
#include "src/parallel/engine.h"
#include "src/util/thread_pool.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

struct BuiltTree {
  std::unique_ptr<SimulatedDisk> disk;
  std::unique_ptr<RStarTree> tree;
};

BuiltTree Build(const PointSet& data, BulkLoadOrder order, ThreadPool* pool) {
  BuiltTree out;
  out.disk = std::make_unique<SimulatedDisk>(0);
  TreeOptions options;
  options.bulk_load_order = order;
  out.tree = std::make_unique<RStarTree>(data.dim(), out.disk.get(), options);
  EXPECT_TRUE(out.tree->BulkLoad(data, nullptr, pool).ok());
  return out;
}

// Exact structural equality: every node, every entry, every Rect bound
// compared with operator== on the raw Scalars (identical computations
// must produce identical bits), plus the disks' write accounting.
void ExpectTreesIdentical(const BuiltTree& a, const BuiltTree& b) {
  ASSERT_EQ(a.tree->num_nodes(), b.tree->num_nodes());
  ASSERT_EQ(a.tree->root_id(), b.tree->root_id());
  ASSERT_EQ(a.tree->size(), b.tree->size());
  for (NodeId id = 0; id < a.tree->num_nodes(); ++id) {
    const Node& na = a.tree->PeekNode(id);
    const Node& nb = b.tree->PeekNode(id);
    ASSERT_EQ(na.level, nb.level) << "node " << id;
    ASSERT_EQ(na.pages, nb.pages) << "node " << id;
    ASSERT_EQ(na.split_history, nb.split_history) << "node " << id;
    ASSERT_EQ(na.entries.size(), nb.entries.size()) << "node " << id;
    for (std::size_t e = 0; e < na.entries.size(); ++e) {
      ASSERT_EQ(na.entries[e].child, nb.entries[e].child)
          << "node " << id << " entry " << e;
      for (std::size_t d = 0; d < a.tree->dim(); ++d) {
        ASSERT_EQ(na.entries[e].rect.lo(d), nb.entries[e].rect.lo(d))
            << "node " << id << " entry " << e << " dim " << d;
        ASSERT_EQ(na.entries[e].rect.hi(d), nb.entries[e].rect.hi(d))
            << "node " << id << " entry " << e << " dim " << d;
      }
    }
  }
  EXPECT_EQ(a.disk->stats().pages_written, b.disk->stats().pages_written);
}

// Many coincident points (coordinates snapped to a 4^d lattice): Hilbert
// keys and STR slab coordinates collide constantly, so only the index
// tiebreak keeps the sorted permutation unique across thread counts.
PointSet MakeDuplicateHeavy(std::size_t n, std::size_t dim,
                            std::uint64_t seed) {
  const PointSet raw = GenerateUniform(n, dim, seed);
  PointSet out(dim);
  out.Reserve(n);
  std::vector<Scalar> p(dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t d = 0; d < dim; ++d) {
      p[d] = std::floor(raw[i][d] * 4.0f) / 4.0f;
    }
    out.Add(PointView(p.data(), dim));
  }
  return out;
}

class BulkLoadParallelTest : public ::testing::TestWithParam<BulkLoadOrder> {};

TEST_P(BulkLoadParallelTest, BitIdenticalAcrossThreadCountsAndDims) {
  ThreadPool pool1(1);
  ThreadPool pool8(8);
  for (const std::size_t dim : {2u, 3u, 5u, 8u, 12u, 16u}) {
    const PointSet data = GenerateUniform(3000 + 371 * dim, dim, 40 + dim);
    const BuiltTree serial = Build(data, GetParam(), nullptr);
    ASSERT_TRUE(serial.tree->ValidateInvariants().ok()) << "dim " << dim;
    for (ThreadPool* pool : {&pool1, &pool8}) {
      const BuiltTree parallel = Build(data, GetParam(), pool);
      ExpectTreesIdentical(serial, parallel);
    }
  }
}

TEST_P(BulkLoadParallelTest, DuplicateHeavyDataStaysDeterministic) {
  ThreadPool pool8(8);
  for (const std::size_t dim : {2u, 8u}) {
    const PointSet data = MakeDuplicateHeavy(20000, dim, 91 + dim);
    const BuiltTree serial = Build(data, GetParam(), nullptr);
    const BuiltTree parallel = Build(data, GetParam(), &pool8);
    ExpectTreesIdentical(serial, parallel);
    ASSERT_TRUE(parallel.tree->ValidateInvariants().ok());
  }
}

TEST_P(BulkLoadParallelTest, QueriesAgreeWithSerialTree) {
  ThreadPool pool8(8);
  const std::size_t dim = 6;
  const PointSet data = GenerateUniform(30000, dim, 57);
  const PointSet queries = GenerateUniformQueries(16, dim, 59);
  const BuiltTree serial = Build(data, GetParam(), nullptr);
  const BuiltTree parallel = Build(data, GetParam(), &pool8);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const KnnResult ra = HsKnn(*serial.tree, queries[q], 10);
    const KnnResult rb = HsKnn(*parallel.tree, queries[q], 10);
    ASSERT_EQ(ra.size(), rb.size());
    for (std::size_t i = 0; i < ra.size(); ++i) {
      EXPECT_EQ(ra[i].id, rb[i].id);
      EXPECT_EQ(ra[i].distance, rb[i].distance);
    }
  }
  EXPECT_EQ(serial.disk->stats().data_pages_read,
            parallel.disk->stats().data_pages_read);
  EXPECT_EQ(serial.disk->stats().directory_pages_read,
            parallel.disk->stats().directory_pages_read);
}

INSTANTIATE_TEST_SUITE_P(Orders, BulkLoadParallelTest,
                         ::testing::Values(BulkLoadOrder::kHilbert,
                                           BulkLoadOrder::kStr),
                         [](const auto& info) {
                           return info.param == BulkLoadOrder::kHilbert
                                      ? "hilbert"
                                      : "str";
                         });

TEST(BulkLoadParallelTest, IdsVectorRoundTripsThroughParallelBuild) {
  ThreadPool pool8(8);
  const std::size_t dim = 4;
  const PointSet data = GenerateUniform(5000, dim, 61);
  std::vector<PointId> ids(data.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<PointId>(1000000 + i);
  }
  SimulatedDisk da(0), db(0);
  RStarTree a(dim, &da), b(dim, &db);
  ASSERT_TRUE(a.BulkLoad(data, &ids).ok());
  ASSERT_TRUE(b.BulkLoad(data, &ids, &pool8).ok());
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(b.Contains(data[i], ids[i]));
  }
  const KnnResult ra = HsKnn(a, data[7], 5);
  const KnnResult rb = HsKnn(b, data[7], 5);
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].id, rb[i].id);
  }
}

// The batch Hilbert API must reproduce the single-point encoder word for
// word (the serial and parallel key phases both ride on it).
TEST(BulkLoadParallelTest, BatchHilbertKeysMatchSinglePointEncoder) {
  for (const std::size_t dim : {1u, 2u, 7u, 8u, 9u, 16u, 17u, 32u, 33u}) {
    const HilbertCurve curve(dim, 8);
    const PointSet data = GenerateUniform(300, dim, 70 + dim);
    const std::size_t w = curve.key_words();
    std::vector<std::uint64_t> batch(data.size() * w);
    // Two calls over split ranges: `begin` offsets must line up too.
    curve.IndexOfPoints(data, 0, 100, batch.data());
    curve.IndexOfPoints(data, 100, data.size(), batch.data() + 100 * w);
    for (std::size_t i = 0; i < data.size(); ++i) {
      const HilbertIndex one = curve.IndexOfPoint(data[i]);
      ASSERT_EQ(one.words.size(), w);
      for (std::size_t j = 0; j < w; ++j) {
        ASSERT_EQ(batch[i * w + j], one.words[j])
            << "dim " << dim << " point " << i << " word " << j;
      }
    }
  }
}

// The cache-friendly (key, index) record sort used by BulkLoad must give
// the same permutation as the old comparator-indirection sort over
// per-point HilbertIndex keys (with the same index tiebreak).
TEST(BulkLoadParallelTest, PairSortMatchesComparatorIndirectionSort) {
  const std::size_t dim = 8;  // one 64-bit word at 8 bits/dim
  const PointSet data = MakeDuplicateHeavy(5000, dim, 83);
  const HilbertCurve curve(dim, 8);
  ASSERT_EQ(curve.key_words(), 1u);

  std::vector<HilbertIndex> keys;
  keys.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    keys.push_back(curve.IndexOfPoint(data[i]));
  }
  std::vector<std::size_t> indirect(data.size());
  std::iota(indirect.begin(), indirect.end(), 0);
  std::sort(indirect.begin(), indirect.end(),
            [&](std::size_t a, std::size_t b) {
              if (keys[a] < keys[b]) return true;
              if (keys[b] < keys[a]) return false;
              return a < b;
            });

  std::vector<std::uint64_t> batch(data.size());
  curve.IndexOfPoints(data, 0, data.size(), batch.data());
  std::vector<std::pair<std::uint64_t, std::uint32_t>> recs(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    recs[i] = {batch[i], static_cast<std::uint32_t>(i)};
  }
  std::sort(recs.begin(), recs.end());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    ASSERT_EQ(static_cast<std::size_t>(recs[i].second), indirect[i]) << i;
  }
}

// End-to-end engine identity: serial engine vs parallel_workers=8, with
// the quantized-mirror warm-up path on and off. Covers the parallel
// federated build, the shared-tree build, the warm-up fan-out
// (WarmLeafBlocks + leaf-route prewarm) and query accounting.
TEST(BulkLoadParallelTest, EngineResultsAndStatsIdenticalToSerial) {
  const std::size_t dim = 8;
  const PointSet data = GenerateUniform(12000, dim, 101);
  const PointSet queries = GenerateUniformQueries(12, dim, 103);
  for (const bool quantize : {false, true}) {
    EngineOptions serial;
    serial.architecture = Architecture::kSharedTree;
    serial.bulk_load = true;
    serial.quantized_leaf_blocks = quantize;
    EngineOptions threaded = serial;
    threaded.parallel_workers = 8;

    ParallelSearchEngine a(
        dim, std::make_unique<NearOptimalDeclusterer>(dim, 8), serial);
    ParallelSearchEngine b(
        dim, std::make_unique<NearOptimalDeclusterer>(dim, 8), threaded);
    ASSERT_TRUE(a.Build(data).ok());
    ASSERT_TRUE(b.Build(data).ok());
    EXPECT_EQ(a.BuildStats().pages_written, b.BuildStats().pages_written);

    for (std::size_t q = 0; q < queries.size(); ++q) {
      QueryStats sa, sb;
      const KnnResult ra = a.Query(queries[q], 10, &sa);
      const KnnResult rb = b.Query(queries[q], 10, &sb);
      ASSERT_EQ(ra.size(), rb.size());
      for (std::size_t i = 0; i < ra.size(); ++i) {
        EXPECT_EQ(ra[i].id, rb[i].id);
        EXPECT_EQ(ra[i].distance, rb[i].distance);
      }
      EXPECT_EQ(sa.total_pages, sb.total_pages);
      EXPECT_EQ(sa.directory_pages, sb.directory_pages);
      EXPECT_EQ(sa.pages_per_disk, sb.pages_per_disk);
      EXPECT_DOUBLE_EQ(sa.parallel_ms, sb.parallel_ms);
    }
  }
}

}  // namespace
}  // namespace parsim
