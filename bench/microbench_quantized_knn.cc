// Microbenchmark of SQ8-quantized leaf blocks with error-bounded
// pruning. Plain main() binary (no google-benchmark).
//
// Two layers, both through the production code paths:
//
//   1. Sweep layer (the headline): the leaves a real k-NN search visits
//      — per query m, exactly the leaves whose MBR MINDIST is within
//      m's true 10-NN distance — swept through SweepLeafBlockMany with
//      that distance as the pruning threshold, exact blocks vs SQ8
//      blocks (toggled via TreeBase::set_quantized_leaf_blocks, so the
//      bench measures the same code queries run). Filtering leaves by
//      MINDIST matters: sweeping *all* leaves would pit far-away
//      queries against blocks whose codes clamp at the lattice edge,
//      where the bound collapses and nothing prunes — a regime the
//      tree search never enters. Reported: wall-clock best-of-reps for
//      both modes, prune rate, and an emit-identity check (every
//      candidate at or under the threshold must surface with the
//      bit-identical exact distance in both modes).
//
//   2. End to end: QueryBatch on exact vs quantized engines over
//      d in {8, 16, 32} x batch in {1, 64} x {unbuffered, 256-page
//      buffer}, coalesced rounds for the wide batches. Results must be
//      bit-identical; page counts equal per query; the quantized
//      engine's simulated makespan drops by the pruned share of
//      distance CPU.
//
// Output: a table on stdout and BENCH_quantized_knn.json in the working
// directory; exit status 1 if any invariant (or, outside --smoke, the
// acceptance floor: >= 1.5x sweep speedup and >= 80% pruned at d=16)
// fails. Scale with PARSIM_BENCH_N / PARSIM_BENCH_QUERIES, or pass
// --smoke for a seconds-fast CI variant.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "bench/microbench_common.h"
#include "src/core/near_optimal.h"
#include "src/geometry/metric.h"
#include "src/geometry/rect.h"
#include "src/index/knn.h"
#include "src/index/leaf_sweep.h"
#include "src/index/xtree.h"
#include "src/parallel/engine.h"
#include "src/util/random.h"
#include "src/util/stopwatch.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

using bench::BestOfMs;
using bench::EnvSize;
using bench::MakeHotSpotQueries;

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

/// One leaf's slice of the sweep workload: the member queries whose
/// search radius reaches this leaf, their coordinates gathered row-major
/// (the layout SweepLeafBlockMany and the q x n kernels consume).
struct LeafGroup {
  NodeId leaf = kInvalidNodeId;
  std::vector<std::size_t> members;   // query indices
  std::vector<Scalar> qbuf;           // members x dim
  std::vector<double> thresholds;     // comparable-space, per member
};

struct SweepResult {
  std::size_t dim = 0;
  std::size_t groups = 0;
  std::size_t member_sweeps = 0;
  std::uint64_t candidates = 0;
  std::uint64_t pruned = 0;
  std::uint64_t reranked = 0;
  double prune_rate = 0.0;
  double exact_ms = 0.0;
  double quant_ms = 0.0;
  double speedup = 0.0;
  bool emits_identical = false;
};

/// An emitted candidate at or under its member's threshold — the part of
/// a sweep's output a k-NN/ball search consumes; must be bit-identical
/// between the exact and quantized modes.
struct Emit {
  std::size_t group;
  std::size_t member;
  std::size_t index;
  double key;
  bool operator==(const Emit& o) const {
    return group == o.group && member == o.member && index == o.index &&
           key == o.key;
  }
};

/// Benchmarks the leaf-sweep layer at one dimensionality: builds the
/// tree, derives per-leaf member groups from true 10-NN radii, and runs
/// the production batched sweep over them in both modes.
SweepResult RunSweepLayer(std::size_t dim, std::size_t n,
                          std::size_t num_queries, std::size_t k, int reps) {
  const Metric metric;  // L2
  const PointSet data = GenerateUniform(n, dim, 8801 + dim);
  const PointSet queries =
      MakeHotSpotQueries(data, num_queries, /*hotspots=*/4, /*jitter=*/0.005,
                         8803 + dim);

  SimulatedDisk disk(0);
  XTree tree(dim, &disk);
  if (!tree.BulkLoad(data).ok()) {
    std::fprintf(stderr, "bulk load failed (d=%zu)\n", dim);
    std::exit(1);
  }

  // Per-query search radius: the true k-NN distance, i.e. the tightest
  // threshold the exact search ends with — the hardest (most honest)
  // setting for the bound, since any slack costs re-ranks.
  std::vector<double> tau(queries.size());
  for (std::size_t m = 0; m < queries.size(); ++m) {
    const KnnResult nn = BruteForceKnn(data, queries[m], k, metric);
    tau[m] = metric.ToComparable(nn.back().distance);
  }

  // Member groups: query m sweeps leaf l iff MINDIST(MBR(l), q_m) <=
  // tau_m — exactly the leaves the best-first search cannot prune.
  const std::vector<NodeId> leaves = CollectLeaves(tree);
  std::vector<LeafGroup> groups;
  SweepResult out;
  out.dim = dim;
  for (const NodeId leaf_id : leaves) {
    const Node& leaf = tree.AccessNode(leaf_id);
    const LeafBlock& block = leaf.block;
    Rect mbr = Rect::Empty(dim);
    for (std::size_t i = 0; i < block.count; ++i) {
      mbr.ExtendToInclude(block.row(i));
    }
    LeafGroup group;
    group.leaf = leaf_id;
    for (std::size_t m = 0; m < queries.size(); ++m) {
      if (MinDistComparable(mbr, queries[m], metric) <= tau[m]) {
        group.members.push_back(m);
        group.thresholds.push_back(tau[m]);
        const PointView qv = queries[m];
        group.qbuf.insert(group.qbuf.end(), qv.begin(), qv.end());
      }
    }
    if (group.members.empty()) continue;
    out.member_sweeps += group.members.size();
    out.candidates += group.members.size() * block.count;
    groups.push_back(std::move(group));
  }
  out.groups = groups.size();

  // One full pass over every group through the production sweep;
  // `sink`/`survivors` keep the emit path alive under optimization, and
  // `collect` (identity passes only) records thresholded emits.
  std::vector<Counters> stats;
  const auto sweep_all = [&](std::uint64_t* survivors, double* sink,
                             Counters* total,
                             std::vector<Emit>* collect) {
    for (std::size_t gi = 0; gi < groups.size(); ++gi) {
      const LeafGroup& g = groups[gi];
      const LeafBlock& block = tree.AccessNode(g.leaf).block;
      stats.assign(g.members.size(), Counters{});
      SweepLeafBlockMany(
          block, g.qbuf.data(), g.members.size(), metric,
          [&](std::size_t m) { return g.thresholds[m]; },
          [&](std::size_t m, std::size_t i, double key) {
            if (key <= g.thresholds[m]) {
              ++*survivors;
              *sink += key;
              if (collect != nullptr) {
                collect->push_back(Emit{gi, m, i, key});
              }
            }
          },
          stats.data());
      if (total != nullptr) {
        for (const Counters& s : stats) *total += s;
      }
    }
  };

  volatile double guard = 0.0;
  std::uint64_t survivors = 0;
  double sink = 0.0;

  // Exact mode: identity reference + timing. The quantize toggle
  // rebuilds every block, so neither timed mode pays for a build.
  tree.set_quantized_leaf_blocks(false);
  std::vector<Emit> exact_emits;
  sweep_all(&survivors, &sink, nullptr, &exact_emits);
  out.exact_ms = BestOfMs(reps, [&] {
    std::uint64_t c = 0;
    double s = 0.0;
    sweep_all(&c, &s, nullptr, nullptr);
    guard = guard + s + static_cast<double>(c);
  });

  // Quantized mode: same sweeps over SQ8 blocks.
  tree.set_quantized_leaf_blocks(true);
  std::vector<Emit> quant_emits;
  Counters total;
  sweep_all(&survivors, &sink, &total, &quant_emits);
  out.quant_ms = BestOfMs(reps, [&] {
    std::uint64_t c = 0;
    double s = 0.0;
    sweep_all(&c, &s, nullptr, nullptr);
    guard = guard + s + static_cast<double>(c);
  });

  out.pruned = total.quantized_pruned;
  out.reranked = total.reranked;
  out.prune_rate =
      out.candidates > 0
          ? static_cast<double>(out.pruned) / static_cast<double>(out.candidates)
          : 0.0;
  out.speedup = out.quant_ms > 0.0 ? out.exact_ms / out.quant_ms : 0.0;
  out.emits_identical = exact_emits == quant_emits;
  (void)guard;
  (void)survivors;
  (void)sink;
  return out;
}

// ---------------------------------------------------------------------------

std::unique_ptr<ParallelSearchEngine> MakeEngine(const PointSet& data,
                                                 std::size_t disks,
                                                 bool quantized, bool coalesced,
                                                 std::uint64_t buffer_pages) {
  EngineOptions options;
  options.architecture = Architecture::kSharedTree;
  options.bulk_load = true;
  options.quantized_leaf_blocks = quantized;
  options.coalesced_batch = coalesced;
  options.buffer_pages_per_disk = buffer_pages;
  options.deterministic_batch = buffer_pages > 0;
  auto engine = std::make_unique<ParallelSearchEngine>(
      data.dim(), std::make_unique<NearOptimalDeclusterer>(data.dim(), disks),
      options);
  if (!engine->Build(data).ok()) return nullptr;
  return engine;
}

bool ResultsIdentical(const std::vector<KnnResult>& a,
                      const std::vector<KnnResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      if (a[i][j].id != b[i][j].id || a[i][j].distance != b[i][j].distance) {
        return false;
      }
    }
  }
  return true;
}

struct EndToEndResult {
  std::size_t dim = 0;
  std::size_t batch = 0;
  std::uint64_t buffer_pages = 0;
  double exact_wall_ms = 0.0;
  double quant_wall_ms = 0.0;
  double wall_speedup = 0.0;
  std::uint64_t pruned = 0;
  std::uint64_t reranked = 0;
  double prune_rate = 0.0;
  bool results_identical = false;
  bool pages_identical = false;
};

EndToEndResult RunEndToEnd(const PointSet& data, const PointSet& queries,
                           std::size_t k, std::size_t disks,
                           std::uint64_t buffer_pages, int reps) {
  EndToEndResult row;
  row.dim = data.dim();
  row.batch = queries.size();
  row.buffer_pages = buffer_pages;
  const bool coalesced = queries.size() > 1;
  const auto exact =
      MakeEngine(data, disks, false, coalesced, buffer_pages);
  const auto quant = MakeEngine(data, disks, true, coalesced, buffer_pages);
  if (exact == nullptr || quant == nullptr) {
    std::fprintf(stderr, "engine build failed\n");
    std::exit(1);
  }

  std::vector<QueryStats> es, qs;
  const std::vector<KnnResult> er = exact->QueryBatch(queries, k, &es, 1);
  const std::vector<KnnResult> qr = quant->QueryBatch(queries, k, &qs, 1);
  row.results_identical = ResultsIdentical(er, qr);
  row.pages_identical = true;
  std::uint64_t candidates = 0;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    // An unbuffered engine's per-query pages are schedule-independent,
    // so they must match exactly; a buffered engine's per-query split
    // depends on the pool's history, so compare the batch totals below
    // instead of per query.
    if (buffer_pages == 0 &&
        (qs[i].total_pages != es[i].total_pages ||
         qs[i].directory_pages != es[i].directory_pages)) {
      row.pages_identical = false;
    }
    row.pruned += qs[i].quantized_pruned;
    row.reranked += qs[i].reranked;
    candidates += qs[i].quantized_pruned + qs[i].reranked;
  }
  row.prune_rate = candidates > 0 ? static_cast<double>(row.pruned) /
                                        static_cast<double>(candidates)
                                  : 0.0;

  row.exact_wall_ms = BestOfMs(
      reps, [&] { (void)exact->QueryBatch(queries, k, nullptr, 1); });
  row.quant_wall_ms = BestOfMs(
      reps, [&] { (void)quant->QueryBatch(queries, k, nullptr, 1); });
  row.wall_speedup =
      row.quant_wall_ms > 0.0 ? row.exact_wall_ms / row.quant_wall_ms : 0.0;
  return row;
}

}  // namespace

int Run(bool smoke) {
  const std::size_t n = EnvSize("PARSIM_BENCH_N", smoke ? 6000 : 40000);
  const std::size_t num_queries =
      EnvSize("PARSIM_BENCH_QUERIES", smoke ? 16 : 64);
  const std::size_t k = 10;
  const std::size_t disks = 8;
  const int reps = smoke ? 2 : 10;
  const std::size_t dims[] = {8, 16, 32};

  std::printf("== microbench_quantized_knn ==\n");
  std::printf("workload: n=%zu queries<=%zu (hot-spot) k=%zu disks=%zu%s\n", n,
              num_queries, k, disks, smoke ? " [smoke]" : "");
  std::printf("hardware threads: %u, kernel tier: %s\n",
              std::thread::hardware_concurrency(),
              detail::KernelTierName(detail::DispatchedTier()));

  bool all_ok = true;

  // --- Part 1: the sweep layer ------------------------------------------
  std::printf("\n[sweep layer] batched leaf sweeps at true 10-NN radii\n");
  std::vector<SweepResult> sweeps;
  for (const std::size_t dim : dims) {
    const SweepResult r = RunSweepLayer(dim, n, num_queries, k, reps);
    all_ok = all_ok && r.emits_identical;
    std::printf(
        "  d=%2zu: %4zu groups / %5zu member-sweeps / %8llu candidates  "
        "exact %7.3f ms -> quant %7.3f ms (%5.2fx)  pruned %5.1f%%  "
        "identical=%s\n",
        r.dim, r.groups, r.member_sweeps,
        static_cast<unsigned long long>(r.candidates), r.exact_ms, r.quant_ms,
        r.speedup, 100.0 * r.prune_rate,
        r.emits_identical ? "yes" : "NO (BUG)");
    sweeps.push_back(r);
  }

  // --- Part 2: end to end -----------------------------------------------
  std::printf("\n[end to end] QueryBatch, exact vs quantized engines\n");
  std::vector<EndToEndResult> rows;
  for (const std::size_t dim : dims) {
    const PointSet data = GenerateUniform(n, dim, 8801 + dim);
    const PointSet all_queries =
        MakeHotSpotQueries(data, num_queries, 4, 0.005, 8803 + dim);
    for (const std::size_t batch : {std::size_t{1}, num_queries}) {
      PointSet queries(dim);
      for (std::size_t i = 0; i < batch; ++i) queries.Add(all_queries[i]);
      for (const std::uint64_t buffer_pages :
           {std::uint64_t{0}, std::uint64_t{256}}) {
        const EndToEndResult row =
            RunEndToEnd(data, queries, k, disks, buffer_pages, reps);
        all_ok = all_ok && row.results_identical && row.pages_identical;
        std::printf(
            "  d=%2zu batch=%2zu buffer=%3llu: wall %8.3f -> %8.3f ms "
            "(%4.2fx)  pruned %5.1f%%  identical=%s pages=%s\n",
            row.dim, row.batch,
            static_cast<unsigned long long>(row.buffer_pages),
            row.exact_wall_ms, row.quant_wall_ms, row.wall_speedup,
            100.0 * row.prune_rate, row.results_identical ? "yes" : "NO (BUG)",
            row.pages_identical ? "yes" : "NO (BUG)");
        rows.push_back(row);
      }
    }
  }

  // --- Acceptance --------------------------------------------------------
  double headline_speedup = 0.0;
  double headline_prune = 0.0;
  for (const SweepResult& r : sweeps) {
    if (r.dim == 16) {
      headline_speedup = r.speedup;
      headline_prune = r.prune_rate;
    }
  }
  const bool speedup_ok = smoke || headline_speedup >= 1.5;
  const bool prune_ok = smoke || headline_prune >= 0.8;
  all_ok = all_ok && speedup_ok && prune_ok;
  std::printf(
      "\nheadline (sweep layer, d=16): speedup %.2fx (>= 1.5 required: %s), "
      "prune rate %.1f%% (>= 80%% required: %s)\n",
      headline_speedup, speedup_ok ? "yes" : "NO", 100.0 * headline_prune,
      prune_ok ? "yes" : "NO");

  // --- JSON ---------------------------------------------------------------
  FILE* json = std::fopen("BENCH_quantized_knn.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_quantized_knn.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json,
               "  \"workload\": {\"points\": %zu, \"dim\": [8, 16, 32], "
               "\"queries\": %zu, \"k\": %zu, \"disks\": %zu, \"smoke\": "
               "%s},\n",
               n, num_queries, k, disks, smoke ? "true" : "false");
  std::fprintf(json, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(json, "  \"kernel_tier\": \"%s\",\n",
               detail::KernelTierName(detail::DispatchedTier()));
  std::fprintf(json, "  \"sweep_layer\": [\n");
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const SweepResult& r = sweeps[i];
    std::fprintf(
        json,
        "    {\"dim\": %zu, \"groups\": %zu, \"member_sweeps\": %zu, "
        "\"candidates\": %llu, \"pruned\": %llu, \"reranked\": %llu, "
        "\"prune_rate\": %.4f, \"exact_ms\": %.4f, \"quant_ms\": %.4f, "
        "\"speedup\": %.3f, \"emits_identical\": %s}%s\n",
        r.dim, r.groups, r.member_sweeps,
        static_cast<unsigned long long>(r.candidates),
        static_cast<unsigned long long>(r.pruned),
        static_cast<unsigned long long>(r.reranked), r.prune_rate, r.exact_ms,
        r.quant_ms, r.speedup, r.emits_identical ? "true" : "false",
        i + 1 < sweeps.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json, "  \"end_to_end\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const EndToEndResult& r = rows[i];
    std::fprintf(
        json,
        "    {\"dim\": %zu, \"batch\": %zu, \"buffer_pages_per_disk\": %llu, "
        "\"exact_wall_ms\": %.4f, \"quant_wall_ms\": %.4f, "
        "\"wall_speedup\": %.3f, \"pruned\": %llu, \"reranked\": %llu, "
        "\"prune_rate\": %.4f, \"results_identical\": %s, "
        "\"pages_identical\": %s}%s\n",
        r.dim, r.batch, static_cast<unsigned long long>(r.buffer_pages),
        r.exact_wall_ms, r.quant_wall_ms, r.wall_speedup,
        static_cast<unsigned long long>(r.pruned),
        static_cast<unsigned long long>(r.reranked), r.prune_rate,
        r.results_identical ? "true" : "false",
        r.pages_identical ? "true" : "false", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json,
               "  \"headline\": {\"layer\": \"sweep\", \"dim\": 16, "
               "\"speedup\": %.3f, \"prune_rate\": %.4f, "
               "\"all_checks_passed\": %s}\n",
               headline_speedup, headline_prune, all_ok ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote BENCH_quantized_knn.json\n");

  return all_ok ? 0 : 1;
}

}  // namespace parsim

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return parsim::Run(smoke);
}
