// Recall@k-vs-QPS curve of the approximate search tier. Plain main()
// binary (no google-benchmark).
//
// Workload: anisotropic d=16 background with hot-spot queries, plus k
// planted true neighbors per hotspot at geometrically spaced radii (see
// PlantNeighbors for why the spacing is what makes the curve
// non-degenerate under distance concentration).
// Ground truth comes from the linear-scan oracle via the recall harness
// (src/eval/recall.h).
//
// One engine per epsilon in the sweep, all through the production
// QueryBatch path (coalesced rounds, one thread):
//
//   exact      — approx_epsilon = 0. Scored recall must be 1.0: this is
//                the curve's anchor point, QPS_exact at recall 1.0.
//   eps = 0    — the same configuration built again, the sweep's first
//                point. Must be bit-identical to exact: same results,
//                distances, and per-query page counts (asserted; exit 1
//                on violation).
//   eps > 0    — both mechanisms (bound relaxation + early
//                termination). Every query's reported k-th distance
//                must obey the (1+eps) contract against the true k-th
//                distance (asserted), and the curve must trade recall
//                for QPS monotonically.
//
// Output: a table on stdout and BENCH_recall.json; exit 1 if any
// identity/contract fails (or, outside --smoke, the acceptance floor:
// some eps > 0 point with recall >= 0.95 runs >= 1.5x the exact QPS).
// Scale with PARSIM_BENCH_N / PARSIM_BENCH_QUERIES, or pass --smoke for
// a seconds-fast CI variant.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <thread>
#include <vector>

#include "src/core/near_optimal.h"
#include "src/eval/recall.h"
#include "src/parallel/engine.h"
#include "src/util/random.h"
#include "src/util/stopwatch.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const double parsed = std::atof(value);
  if (parsed <= 0.0) {
    std::fprintf(stderr, "ignoring %s=\"%s\" (want a positive number)\n",
                 name, value);
    return fallback;
  }
  return parsed;
}

std::size_t EnvSize(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  const std::size_t parsed =
      static_cast<std::size_t>(std::strtoull(value, nullptr, 10));
  if (parsed == 0) {
    std::fprintf(stderr, "ignoring %s=\"%s\" (want a positive integer)\n",
                 name, value);
    return fallback;
  }
  return parsed;
}

template <typename Fn>
double BestOfMs(int reps, const Fn& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedMillis());
  }
  return best;
}

/// Anisotropic point cloud: dimension j's spread decays as decay^j. The
/// recall bench defaults to a steep decay: a low intrinsic dimension
/// spreads the true k-NN distances apart (d_k / d_1 well above 1), which
/// is the regime where a (1+eps) slack sheds frontier work without
/// losing the close neighbors. Near-isotropic high-d data concentrates
/// all k distances within a few percent of each other, and then ANY eps
/// large enough to skip pages also forfeits recall — there is no good
/// curve to trade along, for this or any (1+eps)-bounded method.
PointSet MakeAnisotropic(std::size_t n, std::size_t dim, double decay,
                         unsigned seed) {
  const PointSet base = GenerateUniform(n, dim, seed);
  PointSet out(dim);
  std::vector<Scalar> row(dim);
  for (std::size_t i = 0; i < n; ++i) {
    const PointView p = base[i];
    double spread = 1.0;
    for (std::size_t d = 0; d < dim; ++d) {
      row[d] = static_cast<Scalar>(static_cast<double>(p[d]) * spread);
      spread *= decay;
    }
    out.Add(PointView{row.data(), row.size()});
  }
  return out;
}

/// Plants `k` true neighbors around `center`, at geometrically spaced
/// radii r_max / ratio^(k-1) .. r_max in random directions, and appends
/// them to `data`.
///
/// This is what makes the recall-vs-QPS curve non-degenerate. With
/// natural data in d=16, distance concentration puts all k true
/// neighbor distances within a few percent of d_k, so ANY eps large
/// enough to skip work also forfeits recall — the curve falls off a
/// cliff (measured here: recall 0.98 -> 0.82 between eps 0.05 and 0.1)
/// and no (1+eps)-bounded method can trade along it. Geometric spacing
/// gives each rank (1+eps) headroom over the next: a rank is only at
/// risk once (1+eps) exceeds r_max/r_i = ratio^(k-i), so recall
/// degrades one rank at a time as eps grows. The background still
/// supplies what exact search actually pays for — the thicket of
/// MBR-overlap distractor nodes with MINDIST just under d_k — and
/// those are exactly what the relaxed bound skips.
void PlantNeighbors(PointSet* data, PointView center, std::size_t k,
                    double r_max, double ratio, Rng* rng) {
  const std::size_t dim = center.size();
  std::vector<Scalar> p(dim);
  std::vector<double> dir(dim);
  for (std::size_t i = 0; i < k; ++i) {
    const double radius =
        r_max / std::pow(ratio, static_cast<double>(k - 1 - i));
    double norm2 = 0.0;
    for (std::size_t d = 0; d < dim; ++d) {
      dir[d] = rng->NextGaussian(0.0, 1.0);
      norm2 += dir[d] * dir[d];
    }
    const double scale = radius / std::sqrt(std::max(norm2, 1e-30));
    for (std::size_t d = 0; d < dim; ++d) {
      p[d] = static_cast<Scalar>(static_cast<double>(center[d]) +
                                 dir[d] * scale);
    }
    data->Add(PointView{p.data(), p.size()});
  }
}

/// Hot-spot query workload: queries jitter around the hotspot centers.
PointSet MakeHotSpotQueries(const PointSet& centers, std::size_t dim,
                            std::size_t n, double jitter,
                            std::uint64_t seed) {
  Rng rng(seed);
  PointSet queries(dim);
  std::vector<Scalar> q(dim);
  for (std::size_t i = 0; i < n; ++i) {
    const PointView center = centers[i % centers.size()];
    for (std::size_t d = 0; d < dim; ++d) {
      q[d] = static_cast<Scalar>(static_cast<double>(center[d]) +
                                 rng.NextGaussian(0.0, jitter));
    }
    queries.Add(PointView(q.data(), q.size()));
  }
  return queries;
}

std::unique_ptr<ParallelSearchEngine> MakeEngine(const PointSet& data,
                                                 std::size_t disks,
                                                 double epsilon) {
  EngineOptions options;
  options.architecture = Architecture::kSharedTree;
  options.bulk_load = true;
  options.bulk_load_fill = 1.0;
  options.coalesced_batch = true;
  options.quantized_leaf_blocks = true;
  options.approx_epsilon = epsilon;
  auto engine = std::make_unique<ParallelSearchEngine>(
      data.dim(), std::make_unique<NearOptimalDeclusterer>(data.dim(), disks),
      options);
  if (!engine->Build(data).ok()) {
    std::fprintf(stderr, "engine build failed\n");
    std::exit(1);
  }
  return engine;
}

bool RunsIdentical(const std::vector<KnnResult>& a,
                   const std::vector<KnnResult>& b,
                   const std::vector<QueryStats>& sa,
                   const std::vector<QueryStats>& sb) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].size() != b[i].size()) return false;
    for (std::size_t j = 0; j < a[i].size(); ++j) {
      if (a[i][j].id != b[i][j].id || a[i][j].distance != b[i][j].distance) {
        return false;
      }
    }
    if (sa[i].total_pages != sb[i].total_pages ||
        sa[i].directory_pages != sb[i].directory_pages ||
        sa[i].pages_per_disk != sb[i].pages_per_disk) {
      return false;
    }
  }
  return true;
}

struct CurvePoint {
  double epsilon = 0.0;   // < 0 marks the exact anchor row
  double recall_mean = 1.0;
  double recall_min = 1.0;
  double wall_ms = 0.0;
  double qps = 0.0;
  double speedup_vs_exact = 1.0;
  std::uint64_t total_pages = 0;
  Counters counters;        // summed over the curve point's queries
  bool contract_ok = true;  // D_k <= (1+eps) * d_true_k, every query
};

/// The (1+eps) guarantee, per query: the reported k-th distance never
/// exceeds (1+eps) times the true k-th distance. Relative fp slop covers
/// the float->double kernel boundary.
bool ContractHolds(const std::vector<KnnResult>& results,
                   const std::vector<KnnResult>& truth, std::size_t k,
                   double epsilon) {
  for (std::size_t qi = 0; qi < results.size(); ++qi) {
    const std::size_t want = std::min(k, truth[qi].size());
    if (want == 0 || results[qi].size() < want) continue;
    const double d_true = truth[qi][want - 1].distance;
    const double d_got = results[qi][want - 1].distance;
    if (d_got > (1.0 + epsilon) * d_true * (1.0 + 1e-9)) return false;
  }
  return true;
}

}  // namespace

int Run(bool smoke) {
  const std::size_t n = EnvSize("PARSIM_BENCH_N", smoke ? 6000 : 40000);
  const std::size_t num_queries =
      EnvSize("PARSIM_BENCH_QUERIES", smoke ? 16 : 64);
  const std::size_t dim = 16;
  const std::size_t k = 10;
  const std::size_t disks = 8;
  const int reps = smoke ? 2 : 8;
  const double decay = EnvDouble("PARSIM_BENCH_DECAY", 0.95);
  const double jitter = EnvDouble("PARSIM_BENCH_JITTER", 0.002);
  const std::size_t hotspots = 4;
  /// Planted-neighbor geometry: consecutive true-neighbor ranks spaced
  /// by this distance ratio (see PlantNeighbors), outermost at 0.8x the
  /// center's nearest-background distance so the planted set IS the
  /// true top-k.
  const double geo_ratio = 1.3;
  const double r_frac = 0.8;
  // Sweep capped at 0.8: beyond that, over-relaxation self-defeats —
  // aggressively skipped nodes never contribute the points that would
  // have tightened the bound, so the frontier stays wide and page reads
  // CLIMB again (measured: eps=1.6 reads 2.2x the pages of eps=0.8 at
  // lower recall — a dominated point on the tradeoff curve).
  const double epsilons[] = {0.0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.8};

  std::printf("== microbench_recall ==\n");
  std::printf(
      "workload: anisotropic(decay=%.2f) n=%zu d=%zu + %zu planted "
      "neighbors/hotspot (geo ratio %.2f), queries=%zu (hot-spot "
      "jitter=%.4f) k=%zu disks=%zu coalesced threads=1%s\n",
      decay, n, dim, k, geo_ratio, num_queries, jitter, k, disks,
      smoke ? " [smoke]" : "");
  std::printf("hardware threads: %u\n", std::thread::hardware_concurrency());

  PointSet data = MakeAnisotropic(n, dim, decay, 9001);
  // Hotspot centers: fresh draws from the same distribution (off every
  // data point, so the nearest-background distance is the natural
  // inter-point scale), each seeded with k planted true neighbors.
  const PointSet centers = MakeAnisotropic(hotspots, dim, decay, 9007);
  {
    Rng rng(9011);
    const Metric metric;
    for (std::size_t c = 0; c < hotspots; ++c) {
      double nearest = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        nearest = std::min(nearest, metric.Distance(centers[c], data[i]));
      }
      PlantNeighbors(&data, centers[c], k, r_frac * nearest, geo_ratio, &rng);
    }
  }
  const PointSet queries =
      MakeHotSpotQueries(centers, dim, num_queries, jitter, 9003);

  // Ground truth via the harness: the linear-scan oracle.
  ThreadPool pool;
  const std::vector<KnnResult> truth =
      ComputeGroundTruth(data, queries, k, Metric(), &pool);
  std::printf("ground truth: %zu queries\n", truth.size());

  bool all_ok = true;
  std::vector<CurvePoint> curve;

  // --- Exact anchor --------------------------------------------------------
  std::vector<KnnResult> exact_results;
  std::vector<QueryStats> exact_stats;
  double exact_qps = 0.0;
  {
    const auto engine = MakeEngine(data, disks, 0.0);
    exact_results = engine->QueryBatch(queries, k, &exact_stats, 1);
    const RecallStats r = ScoreRecall(exact_results, truth, k);
    CurvePoint p;
    p.epsilon = -1.0;
    p.recall_mean = r.mean;
    p.recall_min = r.min;
    p.wall_ms = BestOfMs(
        reps, [&] { (void)engine->QueryBatch(queries, k, nullptr, 1); });
    p.qps = p.wall_ms > 0.0
                ? static_cast<double>(num_queries) / (p.wall_ms / 1000.0)
                : 0.0;
    exact_qps = p.qps;
    for (const QueryStats& s : exact_stats) {
      p.total_pages += s.total_pages;
      p.counters += s;
    }
    // The tree path is exact: anything below 1.0 here is a search bug,
    // not an approximation.
    if (r.mean != 1.0 || r.min != 1.0) {
      std::fprintf(stderr, "FAIL: exact path scored recall %.6f (want 1.0)\n",
                   r.mean);
      all_ok = false;
    }
    curve.push_back(p);
    std::printf(
        "\n  exact    : recall 1.000000  wall %8.3f ms  qps %9.1f  pages "
        "%llu\n",
        p.wall_ms, p.qps, static_cast<unsigned long long>(p.total_pages));
  }

  // --- Epsilon sweep -------------------------------------------------------
  for (const double eps : epsilons) {
    const auto engine = MakeEngine(data, disks, eps);
    std::vector<QueryStats> stats;
    const std::vector<KnnResult> results =
        engine->QueryBatch(queries, k, &stats, 1);

    CurvePoint p;
    p.epsilon = eps;
    const RecallStats r = ScoreRecall(results, truth, k);
    p.recall_mean = r.mean;
    p.recall_min = r.min;
    p.wall_ms = BestOfMs(
        reps, [&] { (void)engine->QueryBatch(queries, k, nullptr, 1); });
    p.qps = p.wall_ms > 0.0
                ? static_cast<double>(num_queries) / (p.wall_ms / 1000.0)
                : 0.0;
    p.speedup_vs_exact = exact_qps > 0.0 ? p.qps / exact_qps : 0.0;
    for (const QueryStats& s : stats) {
      p.total_pages += s.total_pages;
      p.counters += s;
    }
    p.contract_ok = ContractHolds(results, truth, k, eps);
    if (!p.contract_ok) {
      std::fprintf(stderr, "FAIL: (1+eps) contract violated at eps=%.2f\n",
                   eps);
      all_ok = false;
    }
    if (eps == 0.0 &&
        !RunsIdentical(results, exact_results, stats, exact_stats)) {
      std::fprintf(stderr,
                   "FAIL: eps=0 not bit-identical to the exact path\n");
      all_ok = false;
    }
    curve.push_back(p);
    std::printf(
        "  eps=%-4.2f : recall %.6f (min %.6f)  wall %8.3f ms  qps %9.1f "
        "(%.2fx)  pages %llu  skipped %llu  exact-pruned %llu\n",
        eps, p.recall_mean, p.recall_min, p.wall_ms, p.qps,
        p.speedup_vs_exact, static_cast<unsigned long long>(p.total_pages),
        static_cast<unsigned long long>(p.counters.approx_skipped_nodes),
        static_cast<unsigned long long>(p.counters.approx_pruned_exactly));
  }

  // --- Curve shape ---------------------------------------------------------
  // Recall must not climb as eps grows, and pages must not grow, modulo
  // small slack: the per-query skip decisions are not pointwise nested —
  // an early skip can leave a LOOSER running bound later in the same
  // search, occasionally re-admitting a node a smaller eps would have
  // cut — so tiny non-monotonicities are legitimate; gross ones are a
  // bug.
  for (std::size_t i = 2; i < curve.size(); ++i) {
    if (curve[i].recall_mean > curve[i - 1].recall_mean + 0.01) {
      std::fprintf(stderr,
                   "FAIL: recall climbed from eps=%.2f (%.4f) to eps=%.2f "
                   "(%.4f)\n",
                   curve[i - 1].epsilon, curve[i - 1].recall_mean,
                   curve[i].epsilon, curve[i].recall_mean);
      all_ok = false;
    }
    if (static_cast<double>(curve[i].total_pages) >
        1.05 * static_cast<double>(curve[i - 1].total_pages)) {
      std::fprintf(stderr, "FAIL: pages grew > 5%% from eps=%.2f to eps=%.2f\n",
                   curve[i - 1].epsilon, curve[i].epsilon);
      all_ok = false;
    }
  }

  // --- Acceptance ----------------------------------------------------------
  // Headline: the best QPS among sweep points still at recall >= 0.95.
  double headline = 0.0;
  double headline_eps = 0.0;
  double headline_recall = 0.0;
  for (const CurvePoint& p : curve) {
    if (p.epsilon >= 0.0 && p.recall_mean >= 0.95 &&
        p.speedup_vs_exact > headline) {
      headline = p.speedup_vs_exact;
      headline_eps = p.epsilon;
      headline_recall = p.recall_mean;
    }
  }
  const bool headline_ok = smoke || headline >= 1.5;
  all_ok = all_ok && headline_ok;
  std::printf(
      "\nheadline (d=16): %.2fx QPS vs exact at recall %.4f (eps=%.2f) "
      "(>= 1.5x at recall >= 0.95 required: %s)\n",
      headline, headline_recall, headline_eps, headline_ok ? "yes" : "NO");

  // --- JSON ----------------------------------------------------------------
  FILE* json = std::fopen("BENCH_recall.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_recall.json\n");
    return 1;
  }
  std::fprintf(json, "{\n");
  std::fprintf(json,
               "  \"workload\": {\"points\": %zu, \"dim\": %zu, \"queries\": "
               "%zu, \"k\": %zu, \"disks\": %zu, \"distribution\": "
               "\"anisotropic\", \"decay\": %.2f, \"jitter\": %.3f, "
               "\"smoke\": %s},\n",
               n, dim, num_queries, k, disks, decay, jitter,
               smoke ? "true" : "false");
  std::fprintf(json, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(json, "  \"curve\": [\n");
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const CurvePoint& p = curve[i];
    if (p.epsilon < 0.0) {
      std::fprintf(json, "    {\"mode\": \"exact\", ");
    } else {
      std::fprintf(json, "    {\"mode\": \"approx\", \"epsilon\": %.4f, ",
                   p.epsilon);
    }
    std::fprintf(
        json,
        "\"recall_mean\": %.6f, \"recall_min\": %.6f, \"wall_ms\": %.4f, "
        "\"qps\": %.2f, \"speedup_vs_exact\": %.4f, \"total_pages\": %llu, "
        "\"approx_skipped_nodes\": %llu, \"approx_pruned_exactly\": %llu, "
        "\"quantized_pruned\": %llu, \"contract_ok\": %s}%s\n",
        p.recall_mean, p.recall_min, p.wall_ms, p.qps, p.speedup_vs_exact,
        static_cast<unsigned long long>(p.total_pages),
        static_cast<unsigned long long>(p.counters.approx_skipped_nodes),
        static_cast<unsigned long long>(p.counters.approx_pruned_exactly),
        static_cast<unsigned long long>(p.counters.quantized_pruned),
        p.contract_ok ? "true" : "false", i + 1 < curve.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n");
  std::fprintf(json,
               "  \"headline\": {\"dim\": %zu, \"speedup_vs_exact\": %.3f, "
               "\"at_recall\": %.4f, \"at_epsilon\": %.2f, \"floor\": 1.5, "
               "\"min_recall\": 0.95, \"all_checks_passed\": %s}\n",
               dim, headline, headline_recall, headline_eps,
               all_ok ? "true" : "false");
  std::fprintf(json, "}\n");
  std::fclose(json);
  std::printf("wrote BENCH_recall.json\n");

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
