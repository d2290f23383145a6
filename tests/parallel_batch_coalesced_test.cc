// Coalesced batched k-NN (EngineOptions::coalesced_batch) vs the
// single-query execution it must be indistinguishable from: bit-identical
// answers across batch sizes and dimensions, the page-conservation
// invariant, composition with fault injection and the buffer pool, and
// schedule determinism at any thread count.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/parsim/parsim.h"

namespace parsim {
namespace {

constexpr std::size_t kK = 10;

std::unique_ptr<ParallelSearchEngine> MakeEngine(
    const PointSet& data, std::uint32_t disks, bool coalesced,
    std::uint64_t buffer_pages = 0, bool replicas = false) {
  EngineOptions options;
  options.architecture = Architecture::kSharedTree;
  options.bulk_load = true;
  options.coalesced_batch = coalesced;
  options.buffer_pages_per_disk = buffer_pages;
  options.enable_replicas = replicas;
  auto engine = std::make_unique<ParallelSearchEngine>(
      data.dim(), std::make_unique<NearOptimalDeclusterer>(data.dim(), disks),
      options);
  EXPECT_TRUE(engine->Build(data).ok());
  return engine;
}

void ExpectSameResults(const std::vector<KnnResult>& a,
                       const std::vector<KnnResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size()) << "query " << q;
    for (std::size_t i = 0; i < a[q].size(); ++i) {
      EXPECT_EQ(a[q][i].id, b[q][i].id) << "query " << q << " rank " << i;
      EXPECT_EQ(a[q][i].distance, b[q][i].distance)
          << "query " << q << " rank " << i;
    }
  }
}

void ExpectSameStats(const std::vector<QueryStats>& a,
                     const std::vector<QueryStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t q = 0; q < a.size(); ++q) {
    SCOPED_TRACE("query " + std::to_string(q));
    EXPECT_EQ(Counters(a[q]), Counters(b[q]));
    EXPECT_EQ(a[q].parallel_ms, b[q].parallel_ms);
    EXPECT_EQ(a[q].sum_ms, b[q].sum_ms);
    EXPECT_EQ(a[q].max_pages, b[q].max_pages);
    EXPECT_EQ(a[q].total_pages, b[q].total_pages);
    EXPECT_EQ(a[q].directory_pages, b[q].directory_pages);
    EXPECT_EQ(a[q].balance, b[q].balance);
    EXPECT_EQ(a[q].pages_per_disk, b[q].pages_per_disk);
    EXPECT_EQ(a[q].degraded, b[q].degraded);
    EXPECT_EQ(a[q].healthy_parallel_ms, b[q].healthy_parallel_ms);
  }
}

TEST(CoalescedBatchTest, BitIdenticalAcrossBatchSizesAndDims) {
  for (const std::size_t dim : {4u, 8u}) {
    const PointSet data = GenerateUniform(5000, dim, 8101 + dim);
    const auto plain = MakeEngine(data, 8, /*coalesced=*/false);
    const auto coalesced = MakeEngine(data, 8, /*coalesced=*/true);
    for (const std::size_t batch : {1u, 5u, 16u}) {
      SCOPED_TRACE("dim " + std::to_string(dim) + " batch " +
                   std::to_string(batch));
      // Clustered queries so the batch genuinely shares pages.
      PointSet queries = GenerateUniformQueries(batch, dim, 8103);
      for (std::size_t i = 0; i < queries.size(); ++i) {
        for (Scalar& c : queries.Mutable(i)) c = 0.4f + 0.2f * c;
      }
      std::vector<QueryStats> plain_stats, co_stats;
      const auto plain_results = plain->QueryBatch(queries, kK, &plain_stats);
      const auto co_results = coalesced->QueryBatch(queries, kK, &co_stats);
      ExpectSameResults(co_results, plain_results);

      // Page conservation: what a query did not read itself it must have
      // received from a round leader, page for page.
      for (std::size_t q = 0; q < batch; ++q) {
        EXPECT_EQ(co_stats[q].total_pages + co_stats[q].directory_pages +
                      co_stats[q].coalesced_reads,
                  plain_stats[q].total_pages + plain_stats[q].directory_pages)
            << "query " << q;
      }
      if (batch > 1) {
        std::uint64_t coalesced_total = 0;
        for (const QueryStats& s : co_stats) {
          coalesced_total += s.coalesced_reads;
        }
        EXPECT_GT(coalesced_total, 0u) << "clustered batch never shared";
      }
    }
  }
}

TEST(CoalescedBatchTest, ComposesWithDiskFailureAndReplicas) {
  const std::size_t dim = 6;
  const std::uint32_t disks = 8;
  const PointSet data = GenerateUniform(4000, dim, 8201);
  const PointSet queries = GenerateUniformQueries(12, dim, 8203);

  const auto plain = MakeEngine(data, disks, false, 0, /*replicas=*/true);
  const auto coalesced = MakeEngine(data, disks, true, 0, /*replicas=*/true);
  const auto healthy = plain->QueryBatch(queries, kK);

  for (const std::uint32_t failed : {0u, 3u, 7u}) {
    SCOPED_TRACE("failed disk " + std::to_string(failed));
    FaultPlan plan(disks);
    plan.FailDisk(failed);
    plain->SetFaultPlan(plan);
    coalesced->SetFaultPlan(plan);

    std::vector<QueryStats> plain_stats, co_stats;
    const auto plain_results = plain->QueryBatch(queries, kK, &plain_stats);
    const auto co_results = coalesced->QueryBatch(queries, kK, &co_stats);

    // Degraded answers still match the healthy ones and each other.
    ExpectSameResults(plain_results, healthy);
    ExpectSameResults(co_results, healthy);

    std::uint64_t plain_attempts = 0, co_attempts = 0;
    for (std::size_t q = 0; q < queries.size(); ++q) {
      // Every page a replica served is attributed to the query it
      // served, whether that query read it or a round leader did.
      EXPECT_EQ(co_stats[q].replica_pages, plain_stats[q].replica_pages)
          << "query " << q;
      EXPECT_EQ(co_stats[q].unavailable_pages, 0u);
      plain_attempts += plain_stats[q].failed_read_attempts;
      co_attempts += co_stats[q].failed_read_attempts;
    }
    // Coalescing collapses the retry storm: one timed-out attempt per
    // shared fetch instead of one per sharing query.
    EXPECT_LE(co_attempts, plain_attempts);
    EXPECT_GT(co_attempts, 0u);

    plain->ClearFaults();
    coalesced->ClearFaults();
  }
}

TEST(CoalescedBatchTest, DeterministicAtAnyThreadCount) {
  const std::size_t dim = 8;
  const PointSet data = GenerateUniform(6000, dim, 8301);
  const PointSet queries = GenerateUniformQueries(24, dim, 8303);

  const auto engine = MakeEngine(data, 8, /*coalesced=*/true);
  std::vector<QueryStats> serial_stats;
  const auto serial = engine->QueryBatch(queries, kK, &serial_stats, 1);

  // The round schedule is a pure function of the query frontiers, so
  // worker count (and repetition) must not change a single bit of the
  // answers or the accounting. Run on 8 workers twice to give TSAN a
  // real interleaving to chew on.
  for (int rep = 0; rep < 2; ++rep) {
    SCOPED_TRACE("rep " + std::to_string(rep));
    std::vector<QueryStats> pooled_stats;
    const auto pooled = engine->QueryBatch(queries, kK, &pooled_stats, 8);
    ExpectSameResults(pooled, serial);
    ExpectSameStats(pooled_stats, serial_stats);
  }
}

TEST(CoalescedBatchTest, ComposesWithBufferPool) {
  const std::size_t dim = 6;
  const PointSet data = GenerateUniform(5000, dim, 8401);
  const PointSet queries = GenerateUniformQueries(16, dim, 8403);

  const auto unbuffered = MakeEngine(data, 8, /*coalesced=*/false);
  const auto buffered = MakeEngine(data, 8, /*coalesced=*/true,
                                   /*buffer_pages=*/64);
  const auto plain_results = unbuffered->QueryBatch(queries, kK);
  std::vector<QueryStats> stats;
  const auto buffered_results = buffered->QueryBatch(queries, kK, &stats);
  ExpectSameResults(buffered_results, plain_results);

  // The pool's global ledger stays conserved under coalescing: every
  // touch is exactly one hit or one miss.
  const BufferPool& pool = *buffered->buffer_pool();
  EXPECT_EQ(pool.TotalHitPages() + pool.TotalMissPages(),
            pool.TotalTouchedPages());
  std::uint64_t hits = 0;
  for (const QueryStats& s : stats) hits += s.buffer_hit_pages;
  EXPECT_GT(hits, 0u);
}

}  // namespace
}  // namespace parsim
