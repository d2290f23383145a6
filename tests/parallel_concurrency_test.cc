// Concurrency stress tests for the query execution layer: many threads
// hammer one engine and every result and every per-query simulated stat
// must match the serial run bit for bit. Built into the TSAN suite by
// tools/ci.sh, so any data race in the cost-capture path is caught here.

#include <algorithm>
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/near_optimal.h"
#include "src/parallel/engine.h"
#include "src/util/thread_pool.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

void ExpectSameResult(const KnnResult& a, const KnnResult& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id);
    EXPECT_EQ(a[i].distance, b[i].distance);  // bitwise
  }
}

void ExpectSameStats(const QueryStats& a, const QueryStats& b) {
  EXPECT_EQ(Counters(a), Counters(b));
  EXPECT_EQ(a.max_pages, b.max_pages);
  EXPECT_EQ(a.total_pages, b.total_pages);
  EXPECT_EQ(a.directory_pages, b.directory_pages);
  EXPECT_EQ(a.pages_per_disk, b.pages_per_disk);
  EXPECT_EQ(a.parallel_ms, b.parallel_ms);  // bitwise
  EXPECT_EQ(a.sum_ms, b.sum_ms);
  EXPECT_EQ(a.balance, b.balance);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.healthy_parallel_ms, b.healthy_parallel_ms);  // bitwise
}

/// Stress-thread count: every core up to 8, but at least 2 so the test
/// still exercises real interleaving on single-core CI machines.
unsigned StressThreads() {
  return std::max(2u, std::min(8u, std::thread::hardware_concurrency()));
}

std::unique_ptr<ParallelSearchEngine> MakeEngine(Architecture arch,
                                                 const PointSet& data,
                                                 std::size_t disks) {
  EngineOptions options;
  options.architecture = arch;
  options.bulk_load = true;
  auto engine = std::make_unique<ParallelSearchEngine>(
      data.dim(), std::make_unique<NearOptimalDeclusterer>(data.dim(), disks),
      options);
  EXPECT_TRUE(engine->Build(data).ok());
  return engine;
}

class ConcurrencyTest : public ::testing::TestWithParam<Architecture> {};

// N raw threads issue interleaved queries against one engine; each
// query's result and stats must equal the serial baseline.
TEST_P(ConcurrencyTest, RawThreadsMatchSerialBaseline) {
  const std::size_t d = 8;
  const std::size_t k = 10;
  const PointSet data = GenerateUniform(6000, d, 1301);
  const PointSet queries = GenerateUniformQueries(24, d, 1303);

  const auto engine = MakeEngine(GetParam(), data, 8);

  // Serial baseline (same engine: queries never reset shared state).
  std::vector<KnnResult> expected(queries.size());
  std::vector<QueryStats> expected_stats(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    expected[i] = engine->Query(queries[i], k, &expected_stats[i]);
  }

  const unsigned num_threads = StressThreads();
  constexpr int kRounds = 3;
  std::vector<KnnResult> got(queries.size());
  std::vector<QueryStats> got_stats(queries.size());
  std::vector<std::thread> threads;
  // Start gate: no thread issues a query until all of them exist, so the
  // queries genuinely overlap instead of racing thread creation.
  std::latch start(num_threads);
  for (unsigned t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      // Every thread answers a strided slice, several times over, so
      // queries genuinely overlap in time.
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = t; i < queries.size(); i += num_threads) {
          got[i] = engine->Query(queries[i], k, &got_stats[i]);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  for (std::size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResult(expected[i], got[i]);
    ExpectSameStats(expected_stats[i], got_stats[i]);
  }
}

// QueryBatch on the pool returns the same results and per-query stats as
// the serial loop.
TEST_P(ConcurrencyTest, QueryBatchMatchesSerialLoop) {
  const std::size_t d = 6;
  const std::size_t k = 5;
  const PointSet data = GenerateUniform(4000, d, 1305);
  const PointSet queries = GenerateUniformQueries(32, d, 1307);

  const auto engine = MakeEngine(GetParam(), data, 4);

  std::vector<QueryStats> serial_stats(queries.size());
  std::vector<KnnResult> serial(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    serial[i] = engine->Query(queries[i], k, &serial_stats[i]);
  }

  std::vector<QueryStats> batch_stats;
  const std::vector<KnnResult> batch =
      engine->QueryBatch(queries, k, &batch_stats, 4);
  ASSERT_EQ(batch.size(), queries.size());
  ASSERT_EQ(batch_stats.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ExpectSameResult(serial[i], batch[i]);
    ExpectSameStats(serial_stats[i], batch_stats[i]);
  }
}

// Cumulative disk counters are merge-order independent: after the same
// multiset of queries, a serially-driven engine and a concurrently-driven
// engine agree on the totals.
TEST_P(ConcurrencyTest, CumulativeDiskStatsMatchSerialEngine) {
  const std::size_t d = 8;
  const std::size_t k = 8;
  const PointSet data = GenerateUniform(5000, d, 1309);
  const PointSet queries = GenerateUniformQueries(16, d, 1311);

  const auto serial_engine = MakeEngine(GetParam(), data, 8);
  const auto parallel_engine = MakeEngine(GetParam(), data, 8);

  for (std::size_t i = 0; i < queries.size(); ++i) {
    (void)serial_engine->Query(queries[i], k);
  }
  (void)parallel_engine->QueryBatch(queries, k, nullptr, 4);

  const DiskStats serial_total = serial_engine->disks().TotalStats();
  const DiskStats parallel_total = parallel_engine->disks().TotalStats();
  EXPECT_EQ(serial_total.data_pages_read, parallel_total.data_pages_read);
  EXPECT_EQ(serial_total.directory_pages_read,
            parallel_total.directory_pages_read);
  EXPECT_EQ(serial_total.distance_computations,
            parallel_total.distance_computations);
  EXPECT_EQ(serial_total.pages_written, parallel_total.pages_written);
  for (DiskId disk = 0; disk < serial_engine->num_disks(); ++disk) {
    EXPECT_EQ(serial_engine->disks().disk(disk).stats().data_pages_read,
              parallel_engine->disks().disk(disk).stats().data_pages_read)
        << "disk " << disk;
  }
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, ConcurrencyTest,
                         ::testing::Values(Architecture::kSharedTree,
                                           Architecture::kFederatedTrees,
                                           Architecture::kFederatedScan),
                         [](const auto& info) {
                           switch (info.param) {
                             case Architecture::kSharedTree:
                               return "SharedTree";
                             case Architecture::kFederatedTrees:
                               return "FederatedTrees";
                             case Architecture::kFederatedScan:
                               return "FederatedScan";
                           }
                           return "Unknown";
                         });

// Mixed query types (k-NN, range, similarity) running concurrently must
// each match their serial counterpart.
TEST(ConcurrencyMixedTest, MixedQueryTypesUnderConcurrency) {
  const std::size_t d = 6;
  const PointSet data = GenerateUniform(4000, d, 1313);
  const PointSet queries = GenerateUniformQueries(12, d, 1315);
  const auto engine = MakeEngine(Architecture::kSharedTree, data, 4);

  const auto box_around = [d](PointView q) {
    std::vector<Scalar> lo(d), hi(d);
    for (std::size_t c = 0; c < d; ++c) {
      lo[c] = q[c] - 0.05f;
      hi[c] = q[c] + 0.05f;
    }
    return Rect(std::move(lo), std::move(hi));
  };

  // Serial expectations.
  std::vector<KnnResult> knn(queries.size());
  std::vector<KnnResult> sim(queries.size());
  std::vector<std::vector<PointId>> range(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    knn[i] = engine->Query(queries[i], 5);
    sim[i] = engine->SimilarityQuery(queries[i], 0.2);
    range[i] = engine->RangeQuery(box_around(queries[i]));
  }

  ThreadPool pool(4);
  pool.ParallelFor(0, queries.size() * 3, [&](std::size_t job) {
    const std::size_t i = job / 3;
    switch (job % 3) {
      case 0: {
        const KnnResult r = engine->Query(queries[i], 5);
        ExpectSameResult(knn[i], r);
        break;
      }
      case 1: {
        const KnnResult r = engine->SimilarityQuery(queries[i], 0.2);
        ExpectSameResult(sim[i], r);
        break;
      }
      default: {
        EXPECT_EQ(engine->RangeQuery(box_around(queries[i])), range[i]);
        break;
      }
    }
  });
}

// With deterministic_batch set, a buffered QueryBatch replays serially
// (whatever thread count is requested) and every per-query stat —
// including the order-dependent buffer hit counts — is reproducible.
TEST(ConcurrencyMixedTest, BufferedEngineDeterministicModeReplaysSerially) {
  const std::size_t d = 4;
  const PointSet data = GenerateUniform(3000, d, 1317);
  const PointSet queries = GenerateUniformQueries(10, d, 1319);

  EngineOptions options;
  options.bulk_load = true;
  options.buffer_pages_per_disk = 64;
  options.deterministic_batch = true;

  std::vector<QueryStats> first_stats;
  std::vector<QueryStats> second_stats;
  for (std::vector<QueryStats>* out : {&first_stats, &second_stats}) {
    ParallelSearchEngine engine(
        d, std::make_unique<NearOptimalDeclusterer>(d, 4), options);
    ASSERT_TRUE(engine.Build(data).ok());
    unsigned effective_threads = 0;
    (void)engine.QueryBatch(queries, 5, out, 4, &effective_threads);
    EXPECT_EQ(effective_threads, 1u) << "deterministic mode must serialize";
  }
  ASSERT_EQ(first_stats.size(), second_stats.size());
  for (std::size_t i = 0; i < first_stats.size(); ++i) {
    ExpectSameStats(first_stats[i], second_stats[i]);
  }
  // Warm buffers must actually have produced hits, or the serial-replay
  // path is not being exercised.
  std::uint64_t hits = 0;
  for (const QueryStats& s : first_stats) hits += s.buffer_hit_pages;
  EXPECT_GT(hits, 0u);
}

// Default (concurrent) buffered batches: the interleaving may shift
// which touches hit, but every query's RESULT and the pool's aggregate
// accounting are invariant across thread counts and query order. One
// fresh engine per run — the buffer carries history across batches, so
// reusing an engine would conflate runs.
TEST(ConcurrencyMixedTest, BufferedBatchAggregatesInvariantUnderInterleaving) {
  const std::size_t d = 6;
  const std::size_t k = 5;
  const PointSet data = GenerateUniform(4000, d, 1321);
  const PointSet queries = GenerateUniformQueries(24, d, 1323);

  EngineOptions options;
  options.bulk_load = true;
  options.buffer_pages_per_disk = 64;

  struct Run {
    std::vector<KnnResult> results;
    std::uint64_t touched = 0;
    std::uint64_t hit_plus_miss = 0;
    std::vector<std::uint64_t> touched_per_shard;
    unsigned effective_threads = 0;
  };
  const auto run_batch = [&](unsigned threads,
                             const std::vector<std::size_t>& order) {
    ParallelSearchEngine engine(
        d, std::make_unique<NearOptimalDeclusterer>(d, 4), options);
    EXPECT_TRUE(engine.Build(data).ok());
    PointSet permuted(d);
    for (std::size_t qi : order) permuted.Add(queries[qi]);
    Run run;
    const std::vector<KnnResult> batch =
        engine.QueryBatch(permuted, k, nullptr, threads,
                          &run.effective_threads);
    // Report results in canonical query order whatever the issue order.
    run.results.resize(queries.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      run.results[order[i]] = batch[i];
    }
    const BufferPool* pool = engine.buffer_pool();
    run.touched = pool->TotalTouchedPages();
    run.hit_plus_miss = pool->TotalHitPages() + pool->TotalMissPages();
    run.touched_per_shard = pool->TouchedPagesPerShard();
    return run;
  };

  std::vector<std::size_t> identity(queries.size());
  for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;
  std::vector<std::size_t> reversed(identity.rbegin(), identity.rend());
  // A fixed interleave permutation (stride walk), deterministic and
  // coprime with the query count.
  std::vector<std::size_t> strided;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    strided.push_back((i * 7) % queries.size());
  }

  const Run baseline = run_batch(1, identity);
  EXPECT_EQ(baseline.effective_threads, 1u);
  EXPECT_EQ(baseline.hit_plus_miss, baseline.touched);
  EXPECT_GT(baseline.touched, 0u);

  const unsigned stress = StressThreads();
  for (const unsigned threads : {4u, 8u, stress}) {
    for (const auto* order : {&identity, &reversed, &strided}) {
      const Run run = run_batch(threads, *order);
      for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        ExpectSameResult(baseline.results[qi], run.results[qi]);
      }
      EXPECT_EQ(run.touched, baseline.touched)
          << threads << " threads: total touched pages must be invariant";
      EXPECT_EQ(run.hit_plus_miss, run.touched)
          << threads << " threads: every touch is exactly one hit or miss";
      EXPECT_EQ(run.touched_per_shard, baseline.touched_per_shard)
          << threads << " threads: per-shard touch totals must be invariant";
    }
  }
}

}  // namespace
}  // namespace parsim
