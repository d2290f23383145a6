// Golden-file regression test of the simulated accounting: a fixed
// workload's per-query stats — healthy and degraded — must stay
// bit-identical across refactors. Doubles are printed with %.17g, which
// round-trips IEEE binary64 exactly, so any drift in the cost formulas
// shows up as a diff. Every work counter (src/io/counters.h) must also
// be non-zero in at least one rendered scenario: a counter that reads 0
// everywhere is a dead signal.
//
// Regenerate after an *intentional* accounting change with
//   PARSIM_UPDATE_GOLDEN=1 ./golden_stats_test
// and commit the updated tests/golden/query_stats.golden alongside it.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/parsim/parsim.h"

namespace parsim {
namespace {

#ifndef PARSIM_TEST_SRCDIR
#error "PARSIM_TEST_SRCDIR must point at the tests/ source directory"
#endif

std::string GoldenPath() {
  return std::string(PARSIM_TEST_SRCDIR) + "/golden/query_stats.golden";
}

std::string FormatDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// Writes one query's stats line; `rendered` sums the counters of every
// stats line written.
void AppendQueryStats(std::ostringstream* out, const QueryStats& stats,
                      Counters* rendered) {
  *rendered += stats;
  *out << "parallel_ms=" << FormatDouble(stats.parallel_ms)
       << " healthy_parallel_ms=" << FormatDouble(stats.healthy_parallel_ms)
       << " sum_ms=" << FormatDouble(stats.sum_ms)
       << " balance=" << FormatDouble(stats.balance)
       << " max_pages=" << stats.max_pages
       << " total_pages=" << stats.total_pages
       << " directory_pages=" << stats.directory_pages
       << " degraded=" << (stats.degraded ? 1 : 0) << ' '
       << static_cast<const Counters&>(stats) << " pages_per_disk=";
  for (std::size_t d = 0; d < stats.pages_per_disk.size(); ++d) {
    *out << (d == 0 ? "" : ",") << stats.pages_per_disk[d];
  }
  *out << "\n";
}

std::string RenderActualStats(Counters* rendered) {
  const std::size_t dim = 6;
  const std::uint32_t disks = 8;
  const std::size_t k = 10;
  const PointSet data = GenerateUniform(2500, dim, 3301);
  const PointSet queries = GenerateUniformQueries(4, dim, 3303);

  EngineOptions options;
  options.architecture = Architecture::kSharedTree;
  options.bulk_load = true;
  options.enable_replicas = true;
  ParallelSearchEngine engine(
      dim, std::make_unique<NearOptimalDeclusterer>(dim, disks), options);
  EXPECT_TRUE(engine.Build(data).ok());

  std::ostringstream out;
  out << "# golden simulated accounting: uniform d=6 n=2500 disks=8 k=10\n";
  out << "[healthy]\n";
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    QueryStats stats;
    (void)engine.Query(queries[qi], k, &stats);
    out << "query " << qi << ": ";
    AppendQueryStats(&out, stats, rendered);
  }

  out << "[degraded disk0_failed replicas_on]\n";
  FaultPlan plan(disks);
  plan.FailDisk(0);
  engine.SetFaultPlan(plan);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    QueryStats stats;
    (void)engine.Query(queries[qi], k, &stats);
    out << "query " << qi << ": ";
    AppendQueryStats(&out, stats, rendered);
  }

  out << "[degraded disk2_slow_x3]\n";
  FaultPlan slow_plan(disks);
  slow_plan.SlowDisk(2, 3.0);
  engine.SetFaultPlan(slow_plan);
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    QueryStats stats;
    (void)engine.Query(queries[qi], k, &stats);
    out << "query " << qi << ": ";
    AppendQueryStats(&out, stats, rendered);
  }
  engine.ClearFaults();

  const ThroughputResult batch = SimulateThroughput(engine, queries, k);
  out << "[throughput healthy]\n";
  out << "makespan_ms=" << FormatDouble(batch.makespan_ms)
      << " healthy_makespan_ms=" << FormatDouble(batch.healthy_makespan_ms)
      << " throughput_qps=" << FormatDouble(batch.throughput_qps)
      << " avg_latency_ms=" << FormatDouble(batch.avg_latency_ms)
      << " degraded_queries=" << batch.degraded_queries << "\n";

  // Buffered accounting on one thread: the sharded page-buffer pool is
  // order-dependent by design, so the batch runs serially and per-query
  // hit / miss numbers stay golden-able.
  EngineOptions buffered = options;
  buffered.buffer_pages_per_disk = 32;
  ParallelSearchEngine buffered_engine(
      dim, std::make_unique<NearOptimalDeclusterer>(dim, disks), buffered);
  EXPECT_TRUE(buffered_engine.Build(data).ok());
  std::vector<QueryStats> batch_stats;
  unsigned effective_threads = 0;
  (void)buffered_engine.QueryBatch(queries, k, &batch_stats,
                                   /*threads=*/1, &effective_threads);
  out << "[buffered serial pages_per_disk=32 threads_requested=1]\n";
  out << "effective_threads=" << effective_threads
      << " pool_hit_pages=" << buffered_engine.buffer_pool()->TotalHitPages()
      << " pool_miss_pages=" << buffered_engine.buffer_pool()->TotalMissPages()
      << "\n";
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    out << "query " << qi << ": hits=" << batch_stats[qi].buffer_hit_pages
        << " ";
    AppendQueryStats(&out, batch_stats[qi], rendered);
  }

  // Coalesced batched execution over the same buffered workload: the
  // round scheduler shares page fetches across the batch, so per-query
  // coalesced_reads / block_kernel_invocations (and the pool ledger it
  // leaves behind) are pinned here. Deterministic at any thread count by
  // construction — threads=8 must reproduce these numbers bit for bit.
  EngineOptions co_options = buffered;
  co_options.coalesced_batch = true;
  ParallelSearchEngine co_engine(
      dim, std::make_unique<NearOptimalDeclusterer>(dim, disks), co_options);
  EXPECT_TRUE(co_engine.Build(data).ok());
  std::vector<QueryStats> co_stats;
  unsigned co_threads = 0;
  (void)co_engine.QueryBatch(queries, k, &co_stats, /*threads=*/8,
                             &co_threads);
  out << "[coalesced buffered pages_per_disk=32 threads_requested=8]\n";
  out << "effective_threads=" << co_threads
      << " pool_hit_pages=" << co_engine.buffer_pool()->TotalHitPages()
      << " pool_miss_pages=" << co_engine.buffer_pool()->TotalMissPages()
      << "\n";
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    out << "query " << qi << ": hits=" << co_stats[qi].buffer_hit_pages
        << " ";
    AppendQueryStats(&out, co_stats[qi], rendered);
  }

  // Quantized leaf blocks: results must be bit-identical to the exact
  // engine (checked here, outside the golden text), while the pinned
  // stats pick up the prune/re-rank/bytes counters and the reduced
  // distance CPU share in parallel_ms.
  EngineOptions quant = options;
  quant.quantized_leaf_blocks = true;
  ParallelSearchEngine quant_engine(
      dim, std::make_unique<NearOptimalDeclusterer>(dim, disks), quant);
  EXPECT_TRUE(quant_engine.Build(data).ok());
  out << "[quantized healthy]\n";
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    QueryStats stats;
    const KnnResult got = quant_engine.Query(queries[qi], k, &stats);
    const KnnResult want = engine.Query(queries[qi], k);
    EXPECT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
      EXPECT_EQ(got[i].distance, want[i].distance) << "rank " << i;
    }
    out << "query " << qi << ": ";
    AppendQueryStats(&out, stats, rendered);
  }

  // Approximate tier at a pinned epsilon: the relaxed-skip and
  // exact-attribution counters, page counts, and the scored recall@k
  // against the linear-scan oracle are all deterministic, so the whole
  // quality/work tradeoff at eps=0.25 is golden-able. Any change to the
  // skip conditions — however plausible — shows up as a diff here.
  EngineOptions approx = options;
  approx.quantized_leaf_blocks = true;
  approx.approx_epsilon = 0.25;
  ParallelSearchEngine approx_engine(
      dim, std::make_unique<NearOptimalDeclusterer>(dim, disks), approx);
  EXPECT_TRUE(approx_engine.Build(data).ok());
  const std::vector<KnnResult> truth = ComputeGroundTruth(data, queries, k);
  std::vector<KnnResult> approx_results;
  out << "[approx eps=0.25 quantized]\n";
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    QueryStats stats;
    approx_results.push_back(approx_engine.Query(queries[qi], k, &stats));
    out << "query " << qi
        << ": recall=" << FormatDouble(RecallAtK(approx_results[qi],
                                                 truth[qi], k))
        << " ";
    AppendQueryStats(&out, stats, rendered);
  }
  const RecallStats recall = ScoreRecall(approx_results, truth, k);
  out << "recall_mean=" << FormatDouble(recall.mean)
      << " recall_min=" << FormatDouble(recall.min)
      << " hits=" << recall.hits << " wanted=" << recall.wanted << "\n";

  // All-pairs self-join at a pinned epsilon, exact and quantized: block
  // pair enumeration, leader-pays page coalescing, the codebook triage
  // counters, and the simulated-time split are all deterministic. The
  // two engines must emit identical pair lists (checked outside the
  // golden text); the counters pin each path's work separately.
  const auto append_join_stats = [&out, rendered](const JoinStats& stats) {
    *rendered += stats;
    out << "leaf_blocks=" << stats.leaf_blocks
        << " considered=" << stats.block_pairs_considered
        << " pruned=" << stats.block_pairs_pruned
        << " swept=" << stats.block_pairs_swept
        << " pairs=" << stats.pairs_emitted
        << " total_pages=" << stats.total_pages
        << " directory_pages=" << stats.directory_pages
        << " max_pages=" << stats.max_pages << ' '
        << static_cast<const Counters&>(stats)
        << " parallel_ms=" << FormatDouble(stats.parallel_ms)
        << " sum_ms=" << FormatDouble(stats.sum_ms)
        << " balance=" << FormatDouble(stats.balance) << "\n";
  };
  const double join_eps = 0.2;
  const JoinResult join_exact = engine.SelfJoin(join_eps);
  const JoinResult join_quant = quant_engine.SelfJoin(join_eps);
  EXPECT_EQ(join_exact.pairs.size(), join_quant.pairs.size());
  for (std::size_t i = 0;
       i < join_exact.pairs.size() && i < join_quant.pairs.size(); ++i) {
    EXPECT_TRUE(join_exact.pairs[i] == join_quant.pairs[i]) << "pair " << i;
  }
  out << "[join eps=0.2 exact]\n";
  append_join_stats(join_exact.stats);
  out << "[join eps=0.2 quantized]\n";
  append_join_stats(join_quant.stats);

  // Bulk-load accounting: per-level node/page/entry counts of the packed
  // tree plus the build's write ledger, for both packing orders. Pins
  // the pack_groups math and the batched AllocateNodes page accounting —
  // the parallel build is asserted bit-identical to this serial layout
  // in index_bulk_load_parallel_test, so one golden section covers both.
  const auto append_tree_levels = [&out](const TreeBase& tree) {
    std::vector<std::size_t> level_nodes, level_pages, level_entries;
    for (NodeId id = 0; id < tree.num_nodes(); ++id) {
      const Node& node = tree.PeekNode(id);
      const auto level = static_cast<std::size_t>(node.level);
      if (level_nodes.size() <= level) {
        level_nodes.resize(level + 1, 0);
        level_pages.resize(level + 1, 0);
        level_entries.resize(level + 1, 0);
      }
      level_nodes[level] += 1;
      level_pages[level] += node.pages;
      level_entries[level] += node.entries.size();
    }
    for (std::size_t level = 0; level < level_nodes.size(); ++level) {
      out << "level " << level << ": nodes=" << level_nodes[level]
          << " pages=" << level_pages[level]
          << " entries=" << level_entries[level] << "\n";
    }
  };
  out << "[bulk load hilbert d=6 n=2500]\n";
  out << "build_pages_written=" << engine.BuildStats().pages_written
      << " height=" << engine.tree().height()
      << " data_pages=" << engine.tree().DataPages() << "\n";
  append_tree_levels(engine.tree());

  SimulatedDisk str_disk(0);
  TreeOptions str_options;
  str_options.bulk_load_order = BulkLoadOrder::kStr;
  RStarTree str_tree(dim, &str_disk, str_options);
  EXPECT_TRUE(str_tree.BulkLoad(data).ok());
  out << "[bulk load str d=6 n=2500]\n";
  out << "build_pages_written=" << str_disk.stats().pages_written
      << " height=" << str_tree.height()
      << " data_pages=" << str_tree.DataPages() << "\n";
  append_tree_levels(str_tree);

  // The two sections below, and the small-epsilon join at the end, each
  // make one counter move that no scenario above does.
  //
  // unavailable_pages: with replicas off, the pages of failed disk 0 have
  // no healthy copy, and TryQuery reports kUnavailable.
  EngineOptions no_replicas = options;
  no_replicas.enable_replicas = false;
  ParallelSearchEngine lone_engine(
      dim, std::make_unique<NearOptimalDeclusterer>(dim, disks), no_replicas);
  EXPECT_TRUE(lone_engine.Build(data).ok());
  lone_engine.SetFaultPlan(plan);
  out << "[unavailable disk0_failed replicas_off]\n";
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    KnnResult result;
    QueryStats stats;
    const Status status = lone_engine.TryQuery(queries[qi], k, &result, &stats);
    out << "query " << qi << ": status=" << StatusCodeToString(status.code())
        << " ";
    AppendQueryStats(&out, stats, rendered);
  }

  // cutoff_skipped_nodes: the n=2500 tree has height 2, so its root's
  // children are all expanded before the k-th-best cutoff exists; a
  // height-3 tree skips directory children against it.
  const PointSet big_data = GenerateUniform(20000, dim, 3301);
  ParallelSearchEngine big_engine(
      dim, std::make_unique<NearOptimalDeclusterer>(dim, disks), options);
  EXPECT_TRUE(big_engine.Build(big_data).ok());
  out << "[cutoff skips d=6 n=20000 height=" << big_engine.tree().height()
      << "]\n";
  for (std::size_t qi = 0; qi < queries.size(); ++qi) {
    QueryStats stats;
    (void)big_engine.Query(queries[qi], k, &stats);
    out << "query " << qi << ": ";
    AppendQueryStats(&out, stats, rendered);
  }

  // Ties: every point of the lattice {0, 1/8, ..., 7/8}^4 (exact in
  // float) is stored twice, so neighbours come in equal-distance twins,
  // and with odd k the k-th neighbour's twin falls just outside the
  // answer. Which twin wins is decided by the frontier's order among
  // equal keys, so a hash of each (id, distance) list pins the tie
  // handling of the single-query search and of the coalesced rounds, on
  // the exact and the SQ8 engine alike.
  const std::size_t lattice_dim = 4;
  const std::size_t lattice_k = 9;
  PointSet lattice(lattice_dim);
  for (int copy = 0; copy < 2; ++copy) {
    for (std::size_t code = 0; code < 4096; ++code) {
      std::vector<Scalar> p(lattice_dim);
      for (std::size_t j = 0; j < lattice_dim; ++j) {
        p[j] = static_cast<Scalar>((code >> (3 * j)) & 7) / 8.0f;
      }
      lattice.Add(p);
    }
  }
  PointSet lattice_queries(lattice_dim);
  for (const std::vector<Scalar>& q :
       {std::vector<Scalar>{0, 0, 0, 0}, std::vector<Scalar>{3, 4, 2, 5},
        std::vector<Scalar>{7, 1, 6, 3}, std::vector<Scalar>{4, 4, 4, 4}}) {
    std::vector<Scalar> p(q);
    for (Scalar& c : p) c /= 8.0f;
    lattice_queries.Add(p);
  }
  const auto hash_neighbors = [](const KnnResult& result) {
    std::uint64_t h = 14695981039346656037ull;  // FNV-1a
    const auto mix = [&h](std::uint64_t word) {
      for (int byte = 0; byte < 8; ++byte) {
        h = (h ^ ((word >> (8 * byte)) & 0xff)) * 1099511628211ull;
      }
    };
    for (const Neighbor& n : result) {
      std::uint64_t bits;
      std::memcpy(&bits, &n.distance, sizeof(bits));
      mix(n.id);
      mix(bits);
    }
    return h;
  };
  out << "[knn lattice ties d=4 n=8192 k=9]\n";
  for (const bool quantized : {false, true}) {
    EngineOptions tie_options = options;
    tie_options.coalesced_batch = true;
    tie_options.quantized_leaf_blocks = quantized;
    ParallelSearchEngine tie_engine(
        lattice_dim,
        std::make_unique<NearOptimalDeclusterer>(lattice_dim, disks),
        tie_options);
    EXPECT_TRUE(tie_engine.Build(lattice).ok());
    const char* name = quantized ? "sq8" : "exact";
    std::vector<KnnResult> single;
    for (std::size_t qi = 0; qi < lattice_queries.size(); ++qi) {
      QueryStats stats;
      single.push_back(
          tie_engine.Query(lattice_queries[qi], lattice_k, &stats));
      out << name << " query " << qi
          << ": hash=" << hash_neighbors(single.back()) << ' ';
      AppendQueryStats(&out, stats, rendered);
    }
    std::vector<QueryStats> batch_stats;
    const std::vector<KnnResult> batch = tie_engine.QueryBatch(
        lattice_queries, lattice_k, &batch_stats, /*threads=*/2);
    for (std::size_t qi = 0; qi < lattice_queries.size(); ++qi) {
      EXPECT_EQ(batch[qi], single[qi]) << name << " query " << qi;
      out << name << " batch " << qi << ": hash=" << hash_neighbors(batch[qi])
          << ' ';
      AppendQueryStats(&out, batch_stats[qi], rendered);
    }
  }

  // base_pruned: at a small epsilon the quantized self-join drops whole
  // codebook rows whose base term, or whose distance to the run's box,
  // already exceeds epsilon. No k-NN scenario above does: a search reads
  // a leaf only within its cutoff. No epsilon on this data does that and
  // emits a pair too (the closest pair is about 0.06 apart, and from
  // 0.04 on every block pair is swept with no base prune), so this join
  // emits none; the exact engine must agree.
  const double small_join_eps = 0.02;
  const JoinResult small_exact = engine.SelfJoin(small_join_eps);
  const JoinResult small_quant = quant_engine.SelfJoin(small_join_eps);
  EXPECT_TRUE(small_exact.pairs == small_quant.pairs);
  EXPECT_GT(small_quant.stats.base_pruned, 0u);
  out << "[join eps=" << small_join_eps << " quantized]\n";
  append_join_stats(small_quant.stats);
  return out.str();
}

TEST(GoldenStatsTest, SimulatedAccountingMatchesGoldenFile) {
  Counters rendered;
  const std::string actual = RenderActualStats(&rendered);
  rendered.ForEach([](const char* name, std::uint64_t total) {
    EXPECT_GT(total, 0u) << name << " reads 0 in every golden scenario";
  });
  const std::string path = GoldenPath();

  if (const char* update = std::getenv("PARSIM_UPDATE_GOLDEN");
      update != nullptr && *update != '\0' && *update != '0') {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "golden file regenerated: " << path;
  }

  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — regenerate with PARSIM_UPDATE_GOLDEN=1";
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str())
      << "simulated accounting drifted from " << path
      << "\nIf the change is intentional, regenerate with "
         "PARSIM_UPDATE_GOLDEN=1 and commit the diff.";
}

}  // namespace
}  // namespace parsim
