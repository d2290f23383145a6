#include "src/parallel/engine.h"

#include <future>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/baselines.h"
#include "src/core/near_optimal.h"
#include "src/index/knn.h"
#include "src/service/query_service.h"
#include "src/util/random.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

std::unique_ptr<ParallelSearchEngine> MakeEngine(
    const PointSet& data, std::uint32_t disks, EngineOptions options = {}) {
  auto engine = std::make_unique<ParallelSearchEngine>(
      data.dim(), std::make_unique<NearOptimalDeclusterer>(data.dim(), disks),
      options);
  const Status s = engine->Build(data);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return engine;
}

TEST(EngineTest, ConstructionWiring) {
  auto dec = std::make_unique<RoundRobinDeclusterer>(4);
  ParallelSearchEngine engine(3, std::move(dec));
  EXPECT_EQ(engine.num_disks(), 4u);
  EXPECT_EQ(engine.dim(), 3u);
  EXPECT_EQ(engine.size(), 0u);
  EXPECT_EQ(engine.declusterer().name(), "RR");
  EXPECT_EQ(engine.disks().size(), 4u);
}

TEST(EngineTest, BuildPartitionsAllPoints) {
  const PointSet data = GenerateUniform(4000, 5, 301);
  EngineOptions options;
  options.architecture = Architecture::kFederatedTrees;
  auto engine = MakeEngine(data, 8, options);
  EXPECT_EQ(engine->size(), 4000u);
  std::size_t stored = 0;
  for (DiskId d = 0; d < 8; ++d) stored += engine->tree(d).size();
  EXPECT_EQ(stored, 4000u);
}

TEST(EngineTest, SharedTreeBuildsOneGlobalIndex) {
  const PointSet data = GenerateUniform(4000, 5, 301);
  auto engine = MakeEngine(data, 8);  // default architecture
  EXPECT_EQ(engine->size(), 4000u);
  EXPECT_EQ(engine->tree(0).size(), 4000u);
  // tree(d) returns the same global tree for any d.
  EXPECT_EQ(&engine->tree(0), &engine->tree(7));
}

TEST(EngineTest, ScanArchitectureMatchesBruteForce) {
  const PointSet data = GenerateUniform(3000, 5, 341);
  EngineOptions options;
  options.architecture = Architecture::kFederatedScan;
  auto engine = MakeEngine(data, 8, options);
  const PointSet queries = GenerateUniformQueries(10, 5, 343);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto got = engine->Query(queries[qi], 5);
    const auto expected = BruteForceKnn(data, queries[qi], 5);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].distance, expected[i].distance, 1e-9);
      EXPECT_EQ(got[i].id, expected[i].id);
    }
  }
}

TEST(EngineTest, ScanArchitectureReadsEveryPageEveryQuery) {
  const PointSet data = GenerateUniform(4000, 5, 345);
  EngineOptions options;
  options.architecture = Architecture::kFederatedScan;
  ParallelSearchEngine engine(5, std::make_unique<RoundRobinDeclusterer>(4),
                              options);
  ASSERT_TRUE(engine.Build(data).ok());
  QueryStats stats;
  (void)engine.Query(data[0], 1, &stats);
  // 4000 points round-robin: 1000 per disk; d=5 records are 24 bytes,
  // 170 per page -> 6 pages per disk.
  EXPECT_EQ(stats.total_pages, 24u);
  EXPECT_EQ(stats.max_pages, 6u);
  EXPECT_DOUBLE_EQ(stats.balance, 1.0);
}

TEST(EngineTest, BuildTwiceRejected) {
  const PointSet data = GenerateUniform(100, 3, 303);
  auto engine = MakeEngine(data, 4);
  EXPECT_EQ(engine->Build(data).code(), StatusCode::kFailedPrecondition);
}

TEST(EngineTest, DimensionMismatchRejected) {
  const PointSet data = GenerateUniform(100, 3, 305);
  ParallelSearchEngine engine(4,
                              std::make_unique<NearOptimalDeclusterer>(4, 4));
  EXPECT_EQ(engine.Build(data).code(), StatusCode::kInvalidArgument);
}

void ExpectSameAnswer(const KnnResult& got, const KnnResult& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "rank " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << "rank " << i;
  }
}

// A NaN never compares equal, so a stored NaN record could never be
// found again (Remove would report NotFound forever), and an infinite
// coordinate breaks the leaf MBRs. Build and Insert reject both and
// leave the index as it was, in every architecture.
TEST(EngineTest, NonFiniteCoordinatesRejected) {
  const std::size_t dim = 16;
  const PointSet data = GenerateUniform(2000, dim, 371);
  const PointSet queries = GenerateUniformQueries(4, dim, 373);
  const auto expect_valid_trees = [](const ParallelSearchEngine& engine) {
    if (engine.options().architecture == Architecture::kFederatedScan) return;
    for (DiskId d = 0; d < engine.num_disks(); ++d) {
      const Status s = engine.tree(d).ValidateInvariants();
      EXPECT_TRUE(s.ok()) << s.ToString();
    }
  };
  for (const Architecture arch :
       {Architecture::kSharedTree, Architecture::kFederatedTrees,
        Architecture::kFederatedScan}) {
    EngineOptions options;
    options.architecture = arch;
    options.quantized_leaf_blocks = true;
    for (const Scalar bad : {std::numeric_limits<Scalar>::quiet_NaN(),
                             std::numeric_limits<Scalar>::infinity(),
                             -std::numeric_limits<Scalar>::infinity()}) {
      SCOPED_TRACE("architecture " + std::to_string(static_cast<int>(arch)) +
                   ", coordinate " + std::to_string(bad));
      // Build: one bad coordinate anywhere rejects the whole set.
      PointSet tainted = data;
      tainted.Mutable(1234)[5] = bad;
      ParallelSearchEngine rejected(
          dim, std::make_unique<NearOptimalDeclusterer>(dim, 8), options);
      EXPECT_EQ(rejected.Build(tainted).code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(rejected.size(), 0u);
      EXPECT_TRUE(rejected.Query(queries[0], 5).empty());
      expect_valid_trees(rejected);

      // Insert: the built index keeps its size and its answers.
      auto engine = MakeEngine(data, 8, options);
      std::vector<KnnResult> before;
      for (std::size_t q = 0; q < queries.size(); ++q) {
        before.push_back(engine->Query(queries[q], 10));
      }
      Point p = data.Materialize(7);
      p[3] = bad;
      EXPECT_EQ(engine->Insert(p, 99999).code(), StatusCode::kInvalidArgument);
      EXPECT_EQ(engine->size(), data.size());
      for (std::size_t q = 0; q < queries.size(); ++q) {
        ExpectSameAnswer(engine->Query(queries[q], 10), before[q]);
      }
      expect_valid_trees(*engine);
    }
  }
}

// Queries are validated too: a NaN or infinite query coordinate has no
// nearest neighbours, so every query entry point of an exact and of an
// SQ8 engine fails a check instead of answering.
TEST(EngineDeathTest, NonFiniteQueryCoordinatesFailLoudly) {
  const std::size_t dim = 16;
  const PointSet data = GenerateUniform(2000, dim, 375);
  for (const bool quantized : {false, true}) {
    EngineOptions options;
    options.quantized_leaf_blocks = quantized;
    const auto engine = MakeEngine(data, 8, options);
    QueryService service(*engine);
    for (const Scalar bad : {std::numeric_limits<Scalar>::quiet_NaN(),
                             std::numeric_limits<Scalar>::infinity(),
                             -std::numeric_limits<Scalar>::infinity()}) {
      SCOPED_TRACE(std::string(quantized ? "sq8" : "exact") +
                   ", coordinate " + std::to_string(bad));
      Point query = data.Materialize(11);
      query[5] = bad;
      PointSet batch(dim);
      batch.Add(data[3]);
      batch.Add(query);
      KnnResult result;
      std::future<ServedResult> served;
      EXPECT_DEATH((void)engine->Query(query, 10), "AllFinite");
      EXPECT_DEATH((void)engine->TryQuery(query, 10, &result), "AllFinite");
      EXPECT_DEATH((void)engine->SimilarityQuery(query, 0.5), "AllFinite");
      EXPECT_DEATH((void)engine->QueryBatch(batch, 10), "AllFinite");
      EXPECT_DEATH(
          (void)service.Submit(query, ServiceQueryOptions{}, &served),
          "AllFinite");
    }
  }
}

TEST(EngineTest, QueryMatchesBruteForce) {
  const PointSet data = GenerateUniform(6000, 8, 307);
  auto engine = MakeEngine(data, 8);
  const PointSet queries = GenerateUniformQueries(20, 8, 309);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto got = engine->Query(queries[qi], 10);
    const auto expected = BruteForceKnn(data, queries[qi], 10);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].distance, expected[i].distance, 1e-9);
    }
  }
}

TEST(EngineTest, QueryMatchesBruteForceAcrossDeclusterers) {
  // Correctness must not depend on the declustering method.
  const PointSet data = GenerateUniform(3000, 5, 311);
  const PointSet queries = GenerateUniformQueries(10, 5, 313);
  std::vector<std::unique_ptr<Declusterer>> decs;
  decs.push_back(std::make_unique<RoundRobinDeclusterer>(5));
  decs.push_back(std::make_unique<DiskModuloDeclusterer>(5, 5));
  decs.push_back(std::make_unique<FxDeclusterer>(5, 5));
  decs.push_back(std::make_unique<HilbertDeclusterer>(5, 5));
  decs.push_back(std::make_unique<NearOptimalDeclusterer>(5, 5));
  for (auto& dec : decs) {
    const std::string name = dec->name();
    ParallelSearchEngine engine(5, std::move(dec));
    ASSERT_TRUE(engine.Build(data).ok());
    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
      const auto got = engine.Query(queries[qi], 5);
      const auto expected = BruteForceKnn(data, queries[qi], 5);
      ASSERT_EQ(got.size(), expected.size()) << name;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_NEAR(got[i].distance, expected[i].distance, 1e-9) << name;
      }
    }
  }
}

TEST(EngineTest, BulkLoadBuildMatchesInsertBuildResults) {
  const PointSet data = GenerateUniform(5000, 6, 315);
  EngineOptions bulk_options;
  bulk_options.bulk_load = true;
  auto bulk_engine = MakeEngine(data, 8, bulk_options);
  auto insert_engine = MakeEngine(data, 8);
  const PointSet queries = GenerateUniformQueries(15, 6, 317);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto a = bulk_engine->Query(queries[qi], 7);
    const auto b = insert_engine->Query(queries[qi], 7);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NEAR(a[i].distance, b[i].distance, 1e-9);
    }
  }
}

TEST(EngineTest, RkvAlgorithmOptionWorks) {
  const PointSet data = GenerateUniform(3000, 4, 319);
  EngineOptions options;
  options.knn_algorithm = KnnAlgorithm::kRkv;
  auto engine = MakeEngine(data, 4, options);
  const PointSet queries = GenerateUniformQueries(10, 4, 321);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto got = engine->Query(queries[qi], 3);
    const auto expected = BruteForceKnn(data, queries[qi], 3);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_NEAR(got[i].distance, expected[i].distance, 1e-9);
    }
  }
}

TEST(EngineTest, RStarTreeKindOptionWorks) {
  const PointSet data = GenerateUniform(2000, 3, 323);
  EngineOptions options;
  options.tree_kind = TreeKind::kRStarTree;
  auto engine = MakeEngine(data, 4, options);
  EXPECT_EQ(engine->tree(0).name(), "R*-tree");
  const auto got = engine->Query(data[0], 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].distance, 0.0);
}

TEST(EngineTest, QueryStatsPopulated) {
  const PointSet data = GenerateUniform(8000, 8, 325);
  auto engine = MakeEngine(data, 8);
  QueryStats stats;
  (void)engine->Query(Point(std::vector<Scalar>(8, 0.5f)), 10, &stats);
  EXPECT_GT(stats.parallel_ms, 0.0);
  EXPECT_GE(stats.sum_ms, stats.parallel_ms);
  EXPECT_GT(stats.max_pages, 0u);
  EXPECT_GE(stats.total_pages, stats.max_pages);
  EXPECT_GT(stats.balance, 0.0);
  EXPECT_LE(stats.balance, 1.0 + 1e-12);
  ASSERT_EQ(stats.pages_per_disk.size(), 8u);
  std::uint64_t sum = 0;
  for (auto p : stats.pages_per_disk) sum += p;
  EXPECT_EQ(sum, stats.total_pages);
}

TEST(EngineTest, SingleDiskEngineIsSequentialBaseline) {
  const PointSet data = GenerateUniform(4000, 6, 327);
  auto engine = MakeEngine(data, 1);
  QueryStats stats;
  (void)engine->Query(data[42], 5, &stats);
  EXPECT_DOUBLE_EQ(stats.parallel_ms, stats.sum_ms);
  EXPECT_EQ(stats.max_pages, stats.total_pages);
}

TEST(EngineTest, DynamicInsertAfterBuild) {
  const PointSet data = GenerateUniform(1000, 4, 329);
  auto engine = MakeEngine(data, 4);
  const Point novel = {0.111f, 0.222f, 0.333f, 0.444f};
  ASSERT_TRUE(engine->Insert(novel, 555555).ok());
  EXPECT_EQ(engine->size(), 1001u);
  const auto got = engine->Query(novel, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].id, 555555u);
  EXPECT_EQ(got[0].distance, 0.0);
}

TEST(EngineTest, NearOptimalBalancesPagesBetterThanRoundRobin) {
  // The core claim, in miniature: on uniform data a near-optimal
  // declustered NN search spreads its page reads over many disks, so the
  // average balance ratio (avg pages / max pages) stays well above the
  // one-disk-does-everything floor of 1/n.
  const std::size_t d = 10;
  const PointSet data = GenerateUniform(16000, d, 331);
  auto engine = MakeEngine(data, 16);
  const PointSet queries = GenerateUniformQueries(20, d, 333);
  double balance_sum = 0.0;
  QueryStats stats;
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    (void)engine->Query(queries[qi], 10, &stats);
    balance_sum += stats.balance;
  }
  EXPECT_GT(balance_sum / static_cast<double>(queries.size()), 0.3)
      << "declustered search must involve many disks per query";
}

TEST(EngineTest, PageBufferMakesRepeatedQueriesCheaper) {
  const PointSet data = GenerateUniform(8000, 6, 351);
  EngineOptions options;
  options.buffer_pages_per_disk = 4096;  // effectively everything fits
  auto engine = MakeEngine(data, 8, options);
  const Point q = {0.2f, 0.4f, 0.6f, 0.8f, 0.3f, 0.7f};
  QueryStats cold, warm;
  (void)engine->Query(q, 10, &cold);
  (void)engine->Query(q, 10, &warm);
  EXPECT_GT(cold.total_pages, 0u);
  EXPECT_EQ(warm.total_pages, 0u) << "second identical query is all hits";
  EXPECT_GT(warm.buffer_hit_pages, 0u);
  EXPECT_LT(warm.parallel_ms, cold.parallel_ms);
}

TEST(EngineTest, PageBufferDoesNotChangeAnswers) {
  const PointSet data = GenerateUniform(5000, 5, 353);
  EngineOptions buffered;
  buffered.buffer_pages_per_disk = 64;
  auto plain = MakeEngine(data, 4);
  auto cached = MakeEngine(data, 4, buffered);
  const PointSet queries = GenerateUniformQueries(15, 5, 355);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    const auto a = plain->Query(queries[qi], 7);
    const auto b = cached->Query(queries[qi], 7);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id);
      EXPECT_EQ(a[i].distance, b[i].distance);
    }
  }
}

TEST(EngineTest, BuildStatsRecordedAndQueriesStartClean) {
  const PointSet data = GenerateUniform(2000, 4, 335);
  auto engine = MakeEngine(data, 4);
  EXPECT_GT(engine->BuildStats().pages_written, 0u);
  QueryStats stats;
  (void)engine->Query(data[0], 1, &stats);
  // Query stats must not include build-time writes.
  EXPECT_EQ(engine->disks().TotalStats().pages_written, 0u);
}

void ExpectSameStats(const QueryStats& a, const QueryStats& b) {
  EXPECT_EQ(Counters(a), Counters(b));
  EXPECT_EQ(a.parallel_ms, b.parallel_ms);  // bitwise
  EXPECT_EQ(a.sum_ms, b.sum_ms);
  EXPECT_EQ(a.max_pages, b.max_pages);
  EXPECT_EQ(a.total_pages, b.total_pages);
  EXPECT_EQ(a.directory_pages, b.directory_pages);
  EXPECT_EQ(a.balance, b.balance);
  EXPECT_EQ(a.pages_per_disk, b.pages_per_disk);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.healthy_parallel_ms, b.healthy_parallel_ms);
  EXPECT_EQ(a.phases.ms, b.phases.ms);
}

// Insert and Remove rebuild the SQ8 blocks and leaf routes of only the
// leaves they change. After every write, ValidateInvariants compares
// every reachable leaf's block and route with a fresh computation, so a
// leaf a write missed fails at that write. Engine `pooled` builds its
// blocks and routes over a pool of 3, engine `serial` on the caller;
// both take the same points and the same writes (NotFound removes
// included), and their final answers and stats must agree.
TEST(EngineTest, WritesKeepCachedBlocksAndRoutesExact) {
  const std::size_t dim = 16;
  const std::size_t n = 1000;
  const PointSet all = GenerateUniform(n + 300, dim, 375);
  PointSet data(dim);
  for (std::size_t i = 0; i < n; ++i) data.Add(all[i]);
  EngineOptions options;
  options.bulk_load = true;
  options.bulk_load_fill = 1.0;  // full leaves: the first inserts split
  options.quantized_leaf_blocks = true;
  options.parallel_workers = 3;
  auto pooled = MakeEngine(data, 16, options);
  options.parallel_workers = 1;
  auto serial = MakeEngine(data, 16, options);
  ASSERT_TRUE(pooled->ValidateInvariants().ok());
  ASSERT_TRUE(serial->ValidateInvariants().ok());

  std::vector<PointId> live(n);
  for (std::size_t i = 0; i < n; ++i) live[i] = static_cast<PointId>(i);
  auto next = static_cast<PointId>(n);
  Rng rng(377);
  const std::size_t nodes_before = pooled->tree().num_nodes();
  std::size_t condensations = 0, not_found = 0;
  for (std::size_t step = 0; step < 800; ++step) {
    // Grow, then shrink to about two thirds of the start size; a tenth
    // of the steps remove a record that is not stored.
    const double insert_share = step < 250 ? 0.7 : 0.05;
    const double r = rng.NextDouble();
    const std::size_t leaves = pooled->tree().ComputeStats().num_leaves;
    PointId id;
    bool insert = false;
    if (r < insert_share && next < all.size()) {
      insert = true;
      id = next++;
    } else if (r < insert_share + 0.1) {
      id = next;
      ++not_found;
    } else {
      const std::size_t victim = rng.NextBounded(live.size());
      id = live[victim];
      live[victim] = live.back();
      live.pop_back();
    }
    const Status a = insert ? pooled->Insert(all[id], id)
                            : pooled->Remove(all[id], id);
    const Status b = insert ? serial->Insert(all[id], id)
                            : serial->Remove(all[id], id);
    ASSERT_EQ(a.code(), b.code()) << "step " << step;
    ASSERT_EQ(a.code(), id == next ? StatusCode::kNotFound : StatusCode::kOk);
    const Status valid = pooled->ValidateInvariants();
    ASSERT_TRUE(valid.ok()) << "step " << step << ": " << valid.ToString();
    ASSERT_TRUE(serial->ValidateInvariants().ok()) << "step " << step;
    if (insert) live.push_back(id);
    if (pooled->tree().ComputeStats().num_leaves < leaves) ++condensations;
  }
  // The seeded run makes 15 nodes, condenses 10 times and misses 71.
  EXPECT_GE(pooled->tree().num_nodes(), nodes_before + 10) << "few splits";
  EXPECT_GE(condensations, 5u);
  EXPECT_GE(not_found, 10u);
  ASSERT_EQ(pooled->size(), live.size());

  QueryStats sa, sb;
  const Rect everything = Rect::UnitCube(dim);
  EXPECT_EQ(pooled->RangeQuery(everything, &sa),
            serial->RangeQuery(everything, &sb));
  ExpectSameStats(sa, sb);
  const PointSet queries = GenerateUniformQueries(16, dim, 379);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    const KnnResult ra = pooled->Query(queries[q], 10, &sa);
    const KnnResult rb = serial->Query(queries[q], 10, &sb);
    ExpectSameAnswer(ra, rb);
    ExpectSameStats(sa, sb);
  }
}

}  // namespace
}  // namespace parsim
