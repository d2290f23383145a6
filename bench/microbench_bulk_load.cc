// Microbenchmark of the parallel bulk-load pipeline. Plain main()
// binary (no google-benchmark).
//
// For every (dim, packing order) configuration the same point set is
// bulk-loaded twice — serially and over an N-thread pool — and the two
// trees are compared EXACTLY: node-for-node structure (levels, pages,
// entry order, every Rect bound), the simulated disks' write ledgers,
// and the results + page accounting of sample k-NN queries. Any
// mismatch exits 1: the determinism contract (ties broken by point
// index, packing boundaries pure functions of (n, fill, capacity),
// batched page-write accounting) is enforced on every run, not just in
// the unit tests.
//
// Reported per configuration: build wall ms and points/sec for both
// modes and the parallel speedup. Two further sections:
//
//   warm-up   — post-build WarmLeafBlocks() over the pool vs serial,
//               with and without SQ8 mirrors (the mirror build is
//               the expensive half of warm-up).
//   key+sort  — the serial-path win on its own: legacy per-point
//               HilbertIndex keys + comparator-indirection std::sort vs
//               the batched IndexOfPoints + (key, index) record sort
//               that BulkLoad now uses at any thread count. Permutation
//               equality is asserted.
//
// Wall-clock thread speedups are hardware-dependent: the JSON records
// hardware_threads, and the >= 3x acceptance floor at (d=16, hilbert)
// is enforced only when the machine actually has >= 4 hardware threads
// (and never in --smoke); identity checks are enforced always. On a
// single-core box the speedup column honestly reports ~1x, same as the
// committed BENCH_query_parallel.json.
//
// Output: a table on stdout and BENCH_bulk_load.json; exit 1 on any
// identity/floor violation. Scale with PARSIM_BENCH_N /
// PARSIM_BENCH_THREADS, or pass --smoke for a seconds-fast CI variant.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <numeric>
#include <thread>
#include <utility>
#include <vector>

#include "bench/microbench_common.h"
#include "src/hilbert/hilbert.h"
#include "src/index/knn.h"
#include "src/index/rstar_tree.h"
#include "src/util/stopwatch.h"
#include "src/util/thread_pool.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

using bench::EnvSize;

struct BuiltTree {
  std::unique_ptr<SimulatedDisk> disk;
  std::unique_ptr<RStarTree> tree;
  double wall_ms = 0.0;
};

BuiltTree Build(const PointSet& data, BulkLoadOrder order, ThreadPool* pool) {
  BuiltTree out;
  out.disk = std::make_unique<SimulatedDisk>(0);
  TreeOptions options;
  options.bulk_load_order = order;
  out.tree = std::make_unique<RStarTree>(data.dim(), out.disk.get(), options);
  Stopwatch watch;
  const Status s = out.tree->BulkLoad(data, nullptr, pool);
  out.wall_ms = watch.ElapsedMillis();
  if (!s.ok()) {
    std::fprintf(stderr, "FATAL: BulkLoad failed: %s\n", s.message().c_str());
    std::exit(1);
  }
  return out;
}

// Exact structural + accounting + query identity; prints and returns
// false on the first divergence.
bool TreesIdentical(const BuiltTree& a, const BuiltTree& b,
                    const PointSet& queries) {
  if (a.tree->num_nodes() != b.tree->num_nodes() ||
      a.tree->root_id() != b.tree->root_id()) {
    std::fprintf(stderr, "IDENTITY VIOLATION: node table differs\n");
    return false;
  }
  for (NodeId id = 0; id < a.tree->num_nodes(); ++id) {
    const Node& na = a.tree->PeekNode(id);
    const Node& nb = b.tree->PeekNode(id);
    if (na.level != nb.level || na.pages != nb.pages ||
        na.entries.size() != nb.entries.size()) {
      std::fprintf(stderr, "IDENTITY VIOLATION: node %u shape differs\n", id);
      return false;
    }
    for (std::size_t e = 0; e < na.entries.size(); ++e) {
      if (na.entries[e].child != nb.entries[e].child) {
        std::fprintf(stderr, "IDENTITY VIOLATION: node %u entry %zu child\n",
                     id, e);
        return false;
      }
      for (std::size_t d = 0; d < a.tree->dim(); ++d) {
        if (na.entries[e].rect.lo(d) != nb.entries[e].rect.lo(d) ||
            na.entries[e].rect.hi(d) != nb.entries[e].rect.hi(d)) {
          std::fprintf(stderr,
                       "IDENTITY VIOLATION: node %u entry %zu rect dim %zu\n",
                       id, e, d);
          return false;
        }
      }
    }
  }
  if (a.disk->stats().pages_written != b.disk->stats().pages_written) {
    std::fprintf(stderr,
                 "IDENTITY VIOLATION: pages_written %llu vs %llu\n",
                 static_cast<unsigned long long>(a.disk->stats().pages_written),
                 static_cast<unsigned long long>(b.disk->stats().pages_written));
    return false;
  }
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const KnnResult ra = HsKnn(*a.tree, queries[q], 10);
    const KnnResult rb = HsKnn(*b.tree, queries[q], 10);
    if (ra.size() != rb.size()) {
      std::fprintf(stderr, "IDENTITY VIOLATION: query %zu result size\n", q);
      return false;
    }
    for (std::size_t i = 0; i < ra.size(); ++i) {
      if (ra[i].id != rb[i].id || ra[i].distance != rb[i].distance) {
        std::fprintf(stderr, "IDENTITY VIOLATION: query %zu rank %zu\n", q, i);
        return false;
      }
    }
  }
  if (a.disk->stats().data_pages_read != b.disk->stats().data_pages_read ||
      a.disk->stats().directory_pages_read !=
          b.disk->stats().directory_pages_read) {
    std::fprintf(stderr, "IDENTITY VIOLATION: query page accounting\n");
    return false;
  }
  return true;
}

struct ConfigRow {
  std::size_t dim = 0;
  const char* order = "";
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

struct WarmRow {
  std::size_t dim = 0;
  bool mirrors = false;
  double serial_ms = 0.0;
  double parallel_ms = 0.0;
  double speedup = 0.0;
};

double PointsPerSec(std::size_t n, double ms) {
  return ms > 0.0 ? static_cast<double>(n) / (ms / 1000.0) : 0.0;
}

// Legacy Hilbert ordering exactly as BulkLoad used to do it — one
// HilbertIndex allocation per point, then std::sort on `order` indices
// chasing keys[a] — with the same index tiebreak the new path has, so
// the permutations are comparable one-to-one.
std::vector<std::size_t> LegacyKeySort(const PointSet& data,
                                       const HilbertCurve& curve) {
  std::vector<HilbertIndex> keys;
  keys.reserve(data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    keys.push_back(curve.IndexOfPoint(data[i]));
  }
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (keys[a] < keys[b]) return true;
    if (keys[b] < keys[a]) return false;
    return a < b;
  });
  return order;
}

// The serial path BulkLoad takes now: batched key computation plus a
// contiguous (key, index) record sort. d=16 at 8 bits/dim is two words.
std::vector<std::size_t> PairKeySort(const PointSet& data,
                                     const HilbertCurve& curve) {
  struct Rec {
    std::uint64_t hi, lo;
    std::uint32_t index;
    bool operator<(const Rec& o) const {
      if (hi != o.hi) return hi < o.hi;
      if (lo != o.lo) return lo < o.lo;
      return index < o.index;
    }
  };
  const std::size_t n = data.size();
  std::vector<Rec> recs(n);
  constexpr std::size_t kChunk = 4096;
  std::vector<std::uint64_t> words(2 * kChunk);
  for (std::size_t begin = 0; begin < n; begin += kChunk) {
    const std::size_t end = std::min(n, begin + kChunk);
    curve.IndexOfPoints(data, begin, end, words.data());
    for (std::size_t i = begin; i < end; ++i) {
      recs[i].hi = words[(i - begin) * 2 + 1];
      recs[i].lo = words[(i - begin) * 2];
      recs[i].index = static_cast<std::uint32_t>(i);
    }
  }
  std::sort(recs.begin(), recs.end());
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = recs[i].index;
  return order;
}

int Run(bool smoke) {
  const std::size_t n = EnvSize("PARSIM_BENCH_N", smoke ? 20000 : 1000000);
  const unsigned threads =
      static_cast<unsigned>(EnvSize("PARSIM_BENCH_THREADS", 8));
  const std::size_t num_queries = 8;
  const unsigned hardware = std::thread::hardware_concurrency();

  std::printf("parallel bulk load: n=%zu threads=%u (hardware threads: %u)%s\n",
              n, threads, hardware, smoke ? " [smoke]" : "");
  ThreadPool pool(threads);
  bool all_ok = true;
  double headline = 0.0;

  std::vector<ConfigRow> rows;
  std::vector<WarmRow> warm_rows;
  std::printf("\n%4s %8s %14s %14s %10s %10s\n", "dim", "order", "serial pts/s",
              "parallel pts/s", "speedup", "identical");
  for (const std::size_t dim : {std::size_t{8}, std::size_t{16}}) {
    const PointSet data = GenerateUniform(n, dim, 7700 + dim);
    const PointSet queries = GenerateUniformQueries(num_queries, dim, 7900);
    for (const BulkLoadOrder order :
         {BulkLoadOrder::kHilbert, BulkLoadOrder::kStr}) {
      const char* order_name =
          order == BulkLoadOrder::kHilbert ? "hilbert" : "str";
      BuiltTree serial = Build(data, order, nullptr);
      BuiltTree parallel = Build(data, order, &pool);
      ConfigRow row;
      row.dim = dim;
      row.order = order_name;
      row.serial_ms = serial.wall_ms;
      row.parallel_ms = parallel.wall_ms;
      row.speedup =
          parallel.wall_ms > 0.0 ? serial.wall_ms / parallel.wall_ms : 0.0;
      row.identical = TreesIdentical(serial, parallel, queries);
      all_ok = all_ok && row.identical;
      if (dim == 16 && order == BulkLoadOrder::kHilbert) {
        headline = row.speedup;
      }
      std::printf("%4zu %8s %14.0f %14.0f %9.2fx %10s\n", dim, order_name,
                  PointsPerSec(n, row.serial_ms),
                  PointsPerSec(n, row.parallel_ms), row.speedup,
                  row.identical ? "yes" : "NO");
      rows.push_back(row);

      // Post-build warm-up fan-out, on the parallel tree (Hilbert only;
      // the warm-up cost does not depend on the packing order). The
      // SQ8 mirror build is the expensive half, so time it with
      // mirrors on and off. Toggling quantization invalidates the block
      // cache, which is what makes re-warming measurable at all.
      if (order == BulkLoadOrder::kHilbert) {
        for (const bool mirrors : {true, false}) {
          WarmRow w;
          w.dim = dim;
          w.mirrors = mirrors;
          parallel.tree->set_quantized_leaf_blocks(mirrors);  // invalidates
          {
            Stopwatch watch;
            parallel.tree->WarmLeafBlocks(nullptr);
            w.serial_ms = watch.ElapsedMillis();
          }
          parallel.tree->set_quantized_leaf_blocks(mirrors);  // invalidate again
          {
            Stopwatch watch;
            parallel.tree->WarmLeafBlocks(&pool);
            w.parallel_ms = watch.ElapsedMillis();
          }
          w.speedup = w.parallel_ms > 0.0 ? w.serial_ms / w.parallel_ms : 0.0;
          warm_rows.push_back(w);
        }
      }
    }
  }

  std::printf("\nwarm-up (WarmLeafBlocks, serial vs %u threads):\n", threads);
  std::printf("%4s %8s %12s %12s %10s\n", "dim", "mirrors", "serial ms",
              "parallel ms", "speedup");
  for (const WarmRow& w : warm_rows) {
    std::printf("%4zu %8s %12.2f %12.2f %9.2fx\n", w.dim,
                w.mirrors ? "sq8" : "off", w.serial_ms, w.parallel_ms,
                w.speedup);
  }

  // Serial-path key+sort improvement: hardware-independent (same thread
  // count on both sides), so this one is meaningful on any box.
  const std::size_t ks_dim = 16;
  const PointSet ks_data = GenerateUniform(n, ks_dim, 8100);
  const HilbertCurve curve(ks_dim, 8);
  double legacy_ms = 0.0, pair_ms = 0.0;
  std::vector<std::size_t> legacy_order, pair_order;
  {
    Stopwatch watch;
    legacy_order = LegacyKeySort(ks_data, curve);
    legacy_ms = watch.ElapsedMillis();
  }
  {
    Stopwatch watch;
    pair_order = PairKeySort(ks_data, curve);
    pair_ms = watch.ElapsedMillis();
  }
  const bool ks_identical = legacy_order == pair_order;
  all_ok = all_ok && ks_identical;
  const double ks_speedup = pair_ms > 0.0 ? legacy_ms / pair_ms : 0.0;
  std::printf(
      "\nserial key+sort (d=%zu, n=%zu): legacy %.2f ms, pair %.2f ms "
      "(%.2fx), permutation %s\n",
      ks_dim, n, legacy_ms, pair_ms, ks_speedup,
      ks_identical ? "identical" : "DIFFERS");

  // The wall-clock floor needs real cores; identity has already been
  // enforced unconditionally above.
  const double floor = 3.0;
  const bool floor_enforced = !smoke && hardware >= 4;
  if (floor_enforced && headline < floor) {
    std::fprintf(stderr,
                 "ACCEPTANCE FLOOR VIOLATION: d=16 hilbert speedup %.2fx < "
                 "%.1fx at %u threads\n",
                 headline, floor, threads);
    all_ok = false;
  } else if (!floor_enforced && !smoke) {
    std::printf(
        "note: %u hardware thread(s) — the %.1fx 8-thread wall-clock floor "
        "is not enforceable on this machine; identity checks still ran\n",
        hardware, floor);
  }

  FILE* json = std::fopen("BENCH_bulk_load.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_bulk_load.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"bulk_load\",\n");
  std::fprintf(json,
               "  \"workload\": {\"n\": %zu, \"dims\": [8, 16], \"orders\": "
               "[\"hilbert\", \"str\"], \"threads\": %u, \"queries\": %zu, "
               "\"smoke\": %s},\n",
               n, threads, num_queries, smoke ? "true" : "false");
  std::fprintf(json, "  \"hardware_threads\": %u,\n", hardware);
  std::fprintf(json, "  \"configs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ConfigRow& r = rows[i];
    std::fprintf(json,
                 "    {\"dim\": %zu, \"order\": \"%s\", \"serial_ms\": %.2f, "
                 "\"parallel_ms\": %.2f, \"serial_points_per_sec\": %.0f, "
                 "\"parallel_points_per_sec\": %.0f, \"speedup\": %.3f, "
                 "\"identical\": %s}%s\n",
                 r.dim, r.order, r.serial_ms, r.parallel_ms,
                 PointsPerSec(n, r.serial_ms), PointsPerSec(n, r.parallel_ms),
                 r.speedup, r.identical ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"warm_up\": [\n");
  for (std::size_t i = 0; i < warm_rows.size(); ++i) {
    const WarmRow& w = warm_rows[i];
    std::fprintf(json,
                 "    {\"dim\": %zu, \"mirrors\": %s, \"serial_ms\": %.2f, "
                 "\"parallel_ms\": %.2f, \"speedup\": %.3f}%s\n",
                 w.dim, w.mirrors ? "true" : "false", w.serial_ms,
                 w.parallel_ms, w.speedup, i + 1 < warm_rows.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"serial_key_sort\": {\"dim\": %zu, \"legacy_ms\": "
               "%.2f, \"pair_ms\": %.2f, \"speedup\": %.3f, \"identical\": "
               "%s},\n",
               ks_dim, legacy_ms, pair_ms, ks_speedup,
               ks_identical ? "true" : "false");
  std::fprintf(json,
               "  \"headline\": {\"dim\": 16, \"order\": \"hilbert\", "
               "\"speedup\": %.3f, \"floor\": %.1f, \"floor_enforced\": %s, "
               "\"all_checks_passed\": %s}\n}\n",
               headline, floor, floor_enforced ? "true" : "false",
               all_ok ? "true" : "false");
  std::fclose(json);
  std::printf("wrote BENCH_bulk_load.json\n");

  return all_ok ? 0 : 1;
}

}  // namespace
}  // namespace parsim

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  return parsim::Run(smoke);
}
