// perf_ledger: the driver of the seeded performance ledger (see
// bench/ledger/README.md for the workloads, metrics and how to run them).
// One invocation runs one workload:
//
//   perf_ledger --workload W --seed S --seconds T --ledger FILE
//               [--trace-file FILE] [--smoke]
//
// It generates the workload's inputs from the seed, sets the engine up
// (median of five fresh builds), finishes lazy set-up with untimed
// queries, measures for T seconds, checks sampled answers against
// oracles, prints one `workload metric value unit` line per metric and
// writes the JSON ledger to FILE. Exit status 1 on any wrong answer.
//
// Every layer is measured from outside, by timing calls into its public
// functions. With --trace-file the engines profile phases
// (EngineOptions::profile_phases / JoinOptions::profile_phases), every
// public call becomes a span whose PhaseBreakdown is attached as child
// spans, and the ledger carries the per-layer metrics; spans stay in
// memory and are written to the trace file at exit.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <dirent.h>
#include <sched.h>
#include <sys/syscall.h>
#include <sys/types.h>
#include <unistd.h>

#include "src/core/near_optimal.h"
#include "src/eval/recall.h"
#include "src/hilbert/hilbert.h"
#include "src/index/knn.h"
#include "src/parallel/engine.h"
#include "src/service/query_service.h"
#include "src/util/random.h"
#include "src/util/thread_pool.h"
#include "src/workload/generators.h"

namespace parsim {
namespace {

using Clock = std::chrono::steady_clock;

// Shared by every workload: the paper's 16 disks at d = 16, and three
// pool workers so a batch or join occupies at most the caller plus three
// threads (four cores).
constexpr std::size_t kDim = 16;
constexpr std::uint32_t kDisks = 16;
constexpr unsigned kWorkers = 3;
constexpr std::size_t kK = 10;
constexpr std::size_t kBulkK = 100;
constexpr std::size_t kBatch = 64;
// Every kCheckEvery-th query (by pool index) is checked against an oracle.
constexpr std::size_t kCheckEvery = 50;
// Query pools are cycled; a multiple of kCheckEvery and kBatch.
constexpr std::size_t kPool = 3200;
// Each data set is a fixture: the clustered and Fourier generators change
// their cluster layout with the seed, which moved the simulated makespan
// (interquartile range over median) by 16% between seeds. --seed draws
// everything a user sends: queries, arrivals, writes, the join's sample,
// and the points the oracles check.
constexpr std::uint64_t kDataSeed = 1997;
// setup_s is the median of this many fresh set-ups.
constexpr int kSetups = 5;

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Linearly interpolated percentile (p in [0, 1]) of `values`. An infinite
/// sample (a failed operation) makes every percentile it reaches infinite.
double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  if (frac == 0.0 || values[hi] == values[lo]) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

/// Operations completed in one phase over the whole run; the rate is all
/// operations over all wall time.
struct Completions {
  std::size_t ops = 0;
  double wall_ms = 0.0;

  void Add(std::size_t completed, double ms) {
    ops += completed;
    wall_ms += ms;
  }
  double Rate() const {
    return wall_ms > 0.0 ? static_cast<double>(ops) / wall_ms * 1e3 : 0.0;
  }
};

// A run's budget is cut into kBlocks time blocks so that its threads move
// over the CPUs block by block (CpuRotation). Statistics do not look at
// blocks: percentiles are taken over all samples of the run.
constexpr std::size_t kBlocks = 20;

/// Moves threads over the process's CPUs block by block. The machine's
/// CPUs slow down unevenly: identical loops pinned to its four CPUs at the
/// same moment differed by up to 1.5x, and which CPUs were slow changed
/// within seconds. The OS leaves a busy thread on one CPU, so a whole run
/// came out fast or slow by where it landed. Rotating the thread instead
/// lets every run see every CPU. Linux only; the destructor restores the
/// calling thread's mask.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof(all_), &all_) != 0) return;
    for (std::size_t cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() { sched_setaffinity(0, sizeof(all_), &all_); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins the calling thread to block `block`'s CPU and each thread id in
  /// `next` (0 = none) to the next CPU.
  void Enter(std::size_t block, const std::vector<pid_t>& next = {}) const {
    if (cpus_.size() < 2) return;
    Pin(0, cpus_[block % cpus_.size()]);
    for (const pid_t other : next) {
      if (other != 0) Pin(other, cpus_[(block + 1) % cpus_.size()]);
    }
  }

 private:
  static void Pin(pid_t tid, std::size_t cpu) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(tid, sizeof(one), &one);
  }

  cpu_set_t all_;
  std::vector<std::size_t> cpus_;
};

/// An idle-priority thread that spins until destroyed, so that the CPU it
/// is pinned to never halts. A vCPU that halts when idle takes a
/// host-dependent time to wake: on a 4-core KVM guest, keeping the service
/// dispatcher's CPU awake this way cut the range of the served p50 at
/// 1,000 q/s from 0.25-0.37 ms to 0.21-0.25 ms over five alternating runs
/// each, and of the served p95 from 0.65-5.9 ms to 0.62-0.71 ms. At
/// SCHED_IDLE the thread yields to any other thread on its CPU. Linux
/// only; tid() is 0 when the policy cannot be set, and the thread then
/// ends at once.
class KeepAwake {
 public:
  KeepAwake() : thread_([this] { Spin(); }) {
    while (tid_.load() == 0) {
    }
  }
  ~KeepAwake() {
    stop_ = true;
    thread_.join();
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

  pid_t tid() const { return std::max<pid_t>(tid_.load(), 0); }

 private:
  void Spin() {
    const sched_param param{};
    const bool idle = sched_setscheduler(0, SCHED_IDLE, &param) == 0;
    tid_ = idle ? static_cast<pid_t>(syscall(SYS_gettid)) : -1;
    while (idle && !stop_.load(std::memory_order_relaxed)) {
    }
  }

  std::atomic<bool> stop_{false};
  std::atomic<pid_t> tid_{0};  // 0 = starting, -1 = not idle-priority
  std::thread thread_;         // last: starts once the atomics exist
};

/// Ids of this process's threads (Linux /proc/self/task).
std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> ids;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return ids;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') {
      ids.push_back(static_cast<pid_t>(std::atoi(entry->d_name)));
    }
  }
  closedir(dir);
  return ids;
}

/// Derives an independent stream seed per (run seed, purpose).
std::uint64_t SubSeed(std::uint64_t seed, std::uint64_t purpose) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + purpose);
  return rng.NextUint64();
}

// ---------------------------------------------------------------------
// Metric registry. End-to-end metrics are what a user sees and are gated
// by BENCHMARK.json bounds; per-layer metrics come from the traced run.
// Every workload reports every metric of its kind; a per-layer metric
// that does not apply to a workload reads 0.

enum class Kind { kEndToEnd, kLayer };

struct MetricSpec {
  const char* name;
  const char* unit;
  bool higher_is_better;
  Kind kind;
};

constexpr MetricSpec kMetrics[] = {
    {"setup_s", "s", false, Kind::kEndToEnd},
    {"p50_ms", "ms", false, Kind::kEndToEnd},
    {"tail_ms", "ms", false, Kind::kEndToEnd},
    {"throughput", "1/s", true, Kind::kEndToEnd},
    {"makespan_ms", "ms", false, Kind::kEndToEnd},

    {"index.descent_ms_per_op", "ms", false, Kind::kLayer},
    {"index.frontier_ms_per_op", "ms", false, Kind::kLayer},
    {"index.frontier_pushes_per_op", "count", false, Kind::kLayer},
    {"index.cutoff_skip_ratio", "ratio", true, Kind::kLayer},
    {"index.bulk_load_ms", "ms", false, Kind::kLayer},
    {"index.warm_ms", "ms", false, Kind::kLayer},
    {"index.insert_ms_p50", "ms", false, Kind::kLayer},
    {"index.remove_ms_p50", "ms", false, Kind::kLayer},
    {"io.ms_per_op", "ms", false, Kind::kLayer},
    {"io.data_pages_per_op", "count", false, Kind::kLayer},
    {"io.directory_pages_per_op", "count", false, Kind::kLayer},
    {"io.max_disk_pages_per_op", "count", false, Kind::kLayer},
    {"io.balance", "ratio", true, Kind::kLayer},
    {"geometry.sweep_prep_ms_per_op", "ms", false, Kind::kLayer},
    {"geometry.sweep_prefix_ms_per_op", "ms", false, Kind::kLayer},
    {"geometry.sweep_full_ms_per_op", "ms", false, Kind::kLayer},
    {"geometry.rerank_ms_per_op", "ms", false, Kind::kLayer},
    {"geometry.candidates_per_op", "count", false, Kind::kLayer},
    {"geometry.prune_ratio", "ratio", true, Kind::kLayer},
    {"geometry.ns_per_candidate", "ns", false, Kind::kLayer},
    {"geometry.leaf_bytes_per_op", "bytes", false, Kind::kLayer},
    {"hilbert.keys_ms", "ms", false, Kind::kLayer},
    {"core.decluster_ms", "ms", false, Kind::kLayer},
    {"parallel.batch_scaling", "ratio", true, Kind::kLayer},
    {"parallel.join_block_pairs_swept_frac", "ratio", false, Kind::kLayer},
    {"parallel.join_coalesced_reads", "count", false, Kind::kLayer},
    {"parallel.join_pairs", "count", false, Kind::kLayer},
    {"service.open_loop_p50_ms", "ms", false, Kind::kLayer},
    {"service.open_loop_p95_ms", "ms", false, Kind::kLayer},
    {"service.queue_p50_ms", "ms", false, Kind::kLayer},
    {"service.queue_p99_ms", "ms", false, Kind::kLayer},
    {"service.rounds_per_query", "count", false, Kind::kLayer},
    {"service.round_width", "count", true, Kind::kLayer},
    {"service.ema_prune_rate", "ratio", true, Kind::kLayer},
    {"service.rejected", "count", false, Kind::kLayer},
    {"service.generator_lag_p99_ms", "ms", false, Kind::kLayer},
    {"service.capacity_qps", "1/s", true, Kind::kLayer},
    {"trace.unattributed_frac", "ratio", false, Kind::kLayer},
    {"trace.overhead_frac", "ratio", false, Kind::kLayer},
};

const MetricSpec* FindSpec(const std::string& name) {
  for (const MetricSpec& spec : kMetrics) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

/// What one run measured and checked.
struct Report {
  struct Value {
    double value = 0.0;
    std::size_t samples = 0;  // 0 = not a sampled statistic
  };
  struct Check {
    std::string name;
    bool passed = true;
  };

  std::map<std::string, Value> metrics;
  /// Deterministic counters: identical on every run of the same seed and
  /// build, compared exactly by bench_diff.
  std::map<std::string, double> counters;
  std::vector<Check> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Set(const std::string& name, double value, std::size_t samples = 0) {
    if (FindSpec(name) == nullptr) {
      std::fprintf(stderr, "perf_ledger: unregistered metric %s\n",
                   name.c_str());
      std::exit(2);
    }
    metrics[name] = Value{value, samples};
  }
  /// A per-layer metric that is also a deterministic counter.
  void SetCounter(const std::string& name, double value) {
    Set(name, value);
    counters[name] = value;
  }
  /// Records one outcome of the named check; a check fails if any of its
  /// outcomes did. `detail` is printed on failure.
  void Expect(const std::string& name, bool passed,
              const std::string& detail = "") {
    if (!passed) {
      std::fprintf(stderr, "perf_ledger: check failed: %s %s\n", name.c_str(),
                   detail.c_str());
    }
    for (Check& c : checks) {
      if (c.name == name) {
        c.passed = c.passed && passed;
        return;
      }
    }
    checks.push_back(Check{name, passed});
  }
  bool correct() const {
    for (const Check& c : checks) {
      if (!c.passed) return false;
    }
    return !checks.empty();
  }
};

// ---------------------------------------------------------------------
// Spans. A call span covers one public call; its PhaseBreakdown becomes
// child spans laid end to end from the call's start (a breakdown holds
// per-phase totals, not intervals). Phases of a call that fans out over
// the pool are summed over its threads, so a call's attributable time is
// wall time x the threads it may occupy.

class Tracer {
 public:
  Tracer(bool enabled, int workload_id)
      : enabled_(enabled), workload_id_(workload_id), epoch_(Clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Records a span and returns its id (-1 when tracing is off).
  int Record(const char* name, Clock::time_point start, Clock::time_point end,
             int parent = -1, unsigned threads = 1) {
    if (!enabled_) return -1;
    spans_.push_back(Span{name, Ns(start), Ns(end), parent, threads});
    return static_cast<int>(spans_.size()) - 1;
  }

  /// A call span with its phases as children.
  int RecordCall(const char* name, Clock::time_point start,
                 Clock::time_point end, const PhaseBreakdown& phases,
                 unsigned threads = 1) {
    const int id = Record(name, start, end, -1, threads);
    if (id < 0) return id;
    std::int64_t at = spans_[static_cast<std::size_t>(id)].start_ns;
    for (std::size_t i = 0; i < kNumPhases; ++i) {
      const auto ns = static_cast<std::int64_t>(phases.ms[i] * 1e6);
      if (ns <= 0) continue;
      spans_.push_back(Span{PhaseName(static_cast<Phase>(i)), at, at + ns, id,
                            1});
      at += ns;
    }
    return id;
  }

  /// 1 - attributed / attributable time over every span with children:
  /// per call, attributable = wall x threads and attributed = the sum of
  /// its children's durations (capped at attributable).
  double UnattributedFrac() const {
    std::vector<double> child_ns(spans_.size(), 0.0);
    std::vector<bool> has_child(spans_.size(), false);
    for (const Span& s : spans_) {
      if (s.parent < 0) continue;
      const auto p = static_cast<std::size_t>(s.parent);
      child_ns[p] += static_cast<double>(s.end_ns - s.start_ns);
      has_child[p] = true;
    }
    double total = 0.0;
    double covered = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (!has_child[i]) continue;
      const double capacity =
          static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) *
          spans_[i].threads;
      total += capacity;
      covered += std::min(capacity, child_ns[i]);
    }
    return total > 0.0 ? 1.0 - covered / total : 0.0;
  }

  /// Writes {"workload", "seed", "columns", "spans"}; one array per span.
  bool Write(const std::string& path, const std::string& workload,
             std::uint64_t seed) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f,
                 "{\"workload\": \"%s\", \"seed\": %llu, \"columns\": "
                 "[\"id\", \"name\", \"start_ns\", \"end_ns\", \"parent\", "
                 "\"threads\", \"workload_id\"],\n\"spans\": [",
                 workload.c_str(), static_cast<unsigned long long>(seed));
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%s\n[%zu, \"%s\", %lld, %lld, %d, %u, %d]",
                   i == 0 ? "" : ",", i, s.name,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent, s.threads,
                   workload_id_);
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
    unsigned threads;
  };

  std::int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  bool enabled_;
  int workload_id_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------
// Run context, engines and shared measurements.

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool smoke = false;
  std::string ledger_path;
  std::string trace_path;  // empty = untraced run
};

struct Ctx {
  Args args;
  Tracer tracer;
  Report report;
  /// Data-set size scale: 1, or 1/50 under --smoke.
  std::size_t Scaled(std::size_t full) const {
    return args.smoke ? std::max<std::size_t>(full / 50, 1) : full;
  }
  /// Untimed queries that finish lazy set-up (and feed the counters).
  std::size_t WarmQueries() const { return args.smoke ? kBatch : 500; }
  bool traced() const { return tracer.enabled(); }
};

std::unique_ptr<ParallelSearchEngine> NewEngine(bool quantized, bool profile) {
  EngineOptions options;
  options.architecture = Architecture::kSharedTree;
  options.tree_kind = TreeKind::kXTree;
  options.bulk_load = true;
  options.parallel_workers = kWorkers;
  options.quantized_leaf_blocks = quantized;
  options.profile_phases = profile;
  return std::make_unique<ParallelSearchEngine>(
      kDim, std::make_unique<NearOptimalDeclusterer>(kDim, kDisks), options);
}

struct Engines {
  /// The engine every timed call goes to (phase-profiled when traced).
  std::unique_ptr<ParallelSearchEngine> measured;
  /// Traced runs only: an identical unprofiled engine, the baseline of
  /// trace.overhead_frac.
  std::unique_ptr<ParallelSearchEngine> plain;
};

/// setup_s: the median of five fresh engine constructions + Build +
/// WarmLeafBlocks over `data`. Traced runs also time the Hilbert keys and
/// the declustering of the data, the two set-up layers Build hides.
Engines SetUp(Ctx& ctx, const PointSet& data, bool quantized) {
  Engines out;
  std::vector<double> setup_s, build_ms, warm_ms;
  for (int rep = 0; rep < kSetups; ++rep) {
    // A traced run keeps its first build unprofiled as the baseline.
    const bool profile = ctx.traced() && rep > 0;
    const Clock::time_point t0 = Clock::now();
    auto engine = NewEngine(quantized, profile);
    const Clock::time_point t1 = Clock::now();
    const Status status = engine->Build(data);
    const Clock::time_point t2 = Clock::now();
    engine->WarmLeafBlocks(kWorkers);
    const Clock::time_point t3 = Clock::now();
    ctx.report.Expect("build_ok", status.ok(), status.ToString());
    if (!status.ok()) std::exit(1);
    ctx.tracer.Record("Build", t1, t2, -1, kWorkers + 1);
    ctx.tracer.Record("WarmLeafBlocks", t2, t3, -1, kWorkers + 1);
    setup_s.push_back(MsBetween(t0, t3) / 1e3);
    build_ms.push_back(MsBetween(t1, t2));
    warm_ms.push_back(MsBetween(t2, t3));
    if (rep == 0 && ctx.traced()) {
      out.plain = std::move(engine);
    } else {
      out.measured = std::move(engine);
    }
  }
  ctx.report.Set("setup_s", Percentile(setup_s, 0.5), setup_s.size());
  if (!ctx.traced()) return out;
  ctx.report.Set("index.bulk_load_ms", Percentile(build_ms, 0.5));
  ctx.report.Set("index.warm_ms", Percentile(warm_ms, 0.5));

  std::vector<double> keys_ms, decluster_ms;
  const HilbertCurve curve(kDim, /*bits=*/8);  // BulkLoad's curve
  std::vector<std::uint64_t> keys(data.size() * curve.key_words());
  const NearOptimalDeclusterer declusterer(kDim, kDisks);
  std::size_t out_of_range = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    curve.IndexOfPoints(data, 0, data.size(), keys.data());
    const Clock::time_point t1 = Clock::now();
    for (std::size_t i = 0; i < data.size(); ++i) {
      out_of_range += declusterer.DiskOfPoint(
                          data[i], static_cast<PointId>(i)) >= kDisks;
    }
    const Clock::time_point t2 = Clock::now();
    ctx.tracer.Record("HilbertCurve::IndexOfPoints", t0, t1);
    ctx.tracer.Record("Declusterer::DiskOfPoint", t1, t2);
    keys_ms.push_back(MsBetween(t0, t1));
    decluster_ms.push_back(MsBetween(t1, t2));
  }
  ctx.report.Expect("decluster_in_range", out_of_range == 0);
  ctx.report.Set("hilbert.keys_ms", Percentile(keys_ms, 0.5));
  ctx.report.Set("core.decluster_ms", Percentile(decluster_ms, 0.5));
  return out;
}

/// Same neighbors: equal distances position by position, and equal id
/// sets within every run of tied distances (oracles may break ties by
/// position rather than by id).
bool SameAnswer(const KnnResult& a, const KnnResult& b) {
  if (a.size() != b.size()) return false;
  std::size_t i = 0;
  while (i < a.size()) {
    std::size_t j = i;
    std::vector<PointId> ia, ib;
    while (j < a.size() && a[j].distance == a[i].distance) {
      if (b[j].distance != a[i].distance) return false;
      ia.push_back(a[j].id);
      ib.push_back(b[j].id);
      ++j;
    }
    std::sort(ia.begin(), ia.end());
    std::sort(ib.begin(), ib.end());
    if (ia != ib) return false;
    i = j;
  }
  return true;
}

/// Per-op means of the QueryStats counters, plus the paper's makespan
/// (mean parallel_ms). `deterministic`: the stats repeat exactly for the
/// same seed, so they also go to the ledger's counters.
void ReportQueryCounters(Ctx& ctx, const std::vector<QueryStats>& stats,
                         bool deterministic) {
  const double n = static_cast<double>(std::max<std::size_t>(stats.size(), 1));
  double makespan = 0, pages = 0, dir = 0, max_pages = 0, balance = 0;
  double pushes = 0, skipped = 0, pruned = 0, reranked = 0, bytes = 0;
  for (const QueryStats& s : stats) {
    makespan += s.parallel_ms;
    pages += static_cast<double>(s.total_pages);
    dir += static_cast<double>(s.directory_pages);
    max_pages += static_cast<double>(s.max_pages);
    balance += s.balance;
    pushes += static_cast<double>(s.frontier_pushes);
    skipped += static_cast<double>(s.cutoff_skipped_nodes);
    pruned += static_cast<double>(s.quantized_pruned);
    reranked += static_cast<double>(s.reranked);
    bytes += static_cast<double>(s.leaf_bytes_scanned);
  }
  const auto set = [&](const char* name, double value) {
    ctx.report.Set(name, value, stats.size());
    if (deterministic) ctx.report.counters[name] = value;
  };
  set("makespan_ms", makespan / n);
  set("io.data_pages_per_op", pages / n);
  set("io.directory_pages_per_op", dir / n);
  set("io.max_disk_pages_per_op", max_pages / n);
  set("io.balance", balance / n);
  set("index.frontier_pushes_per_op", pushes / n);
  set("index.cutoff_skip_ratio",
      skipped + pushes > 0 ? skipped / (skipped + pushes) : 0.0);
  set("geometry.candidates_per_op", (pruned + reranked) / n);
  set("geometry.prune_ratio",
      pruned + reranked > 0 ? pruned / (pruned + reranked) : 0.0);
  set("geometry.leaf_bytes_per_op", bytes / n);
}

/// Per-op phase times of the timed calls (traced runs), and the integer
/// kernel's cost per candidate.
void ReportPhases(Ctx& ctx, const PhaseBreakdown& sum, std::size_t ops) {
  const double candidates_per_op =
      ctx.report.metrics["geometry.candidates_per_op"].value;
  const double n = static_cast<double>(std::max<std::size_t>(ops, 1));
  ctx.report.Set("index.descent_ms_per_op", sum.of(Phase::kDescent) / n);
  ctx.report.Set("index.frontier_ms_per_op", sum.of(Phase::kFrontier) / n);
  ctx.report.Set("io.ms_per_op", sum.of(Phase::kIo) / n);
  ctx.report.Set("geometry.sweep_prep_ms_per_op",
                 sum.of(Phase::kSweepPrep) / n);
  ctx.report.Set("geometry.sweep_prefix_ms_per_op",
                 sum.of(Phase::kSweepPrefix) / n);
  ctx.report.Set("geometry.sweep_full_ms_per_op",
                 sum.of(Phase::kSweepFull) / n);
  ctx.report.Set("geometry.rerank_ms_per_op",
                 sum.of(Phase::kSweepRerank) / n);
  const double kernel_ms =
      (sum.of(Phase::kSweepPrefix) + sum.of(Phase::kSweepFull)) / n;
  ctx.report.Set("geometry.ns_per_candidate",
                 candidates_per_op > 0 ? kernel_ms * 1e6 / candidates_per_op
                                       : 0.0);
}

/// trace.overhead_frac: the same pool queries timed on the unprofiled
/// twin without spans, then on the measured engine with phases and spans
/// on, alternating in chunks (so drift on the machine hits both sides
/// alike) until both sides together have run for a second.
void MeasureQueryOverhead(Ctx& ctx, const Engines& engines,
                          const PointSet& queries) {
  if (!ctx.traced()) return;
  constexpr std::size_t kChunk = 50;
  double plain_ms = 0.0;
  double traced_ms = 0.0;
  std::size_t count = 0;
  while (plain_ms + traced_ms < 1e3 && count < queries.size()) {
    const std::size_t end = std::min(count + kChunk, queries.size());
    Clock::time_point t0 = Clock::now();
    for (std::size_t i = count; i < end; ++i) {
      (void)engines.plain->Query(queries[i], kK);
    }
    plain_ms += MsBetween(t0, Clock::now());
    t0 = Clock::now();
    for (std::size_t i = count; i < end; ++i) {
      QueryStats stats;
      const Clock::time_point s = Clock::now();
      (void)engines.measured->Query(queries[i], kK, &stats);
      ctx.tracer.RecordCall("Query(overhead)", s, Clock::now(), stats.phases);
    }
    traced_ms += MsBetween(t0, Clock::now());
    count = end;
  }
  ctx.report.Set("trace.overhead_frac", traced_ms / plain_ms - 1.0, count);
}

/// The first `count` queries of the pool through Query with stats,
/// untimed: finishes lazy set-up and yields the deterministic counters.
std::vector<QueryStats> WarmUp(const ParallelSearchEngine& engine,
                               const PointSet& pool, std::size_t count,
                               std::vector<KnnResult>* results = nullptr) {
  std::vector<QueryStats> stats(std::min(count, pool.size()));
  for (std::size_t i = 0; i < stats.size(); ++i) {
    KnnResult r = engine.Query(pool[i], kK, &stats[i]);
    if (results != nullptr) results->push_back(std::move(r));
  }
  return stats;
}

/// Oracle answers of every kCheckEvery-th pool query (by pool index).
std::vector<KnnResult> GroundTruth(const PointSet& data, const PointSet& pool) {
  PointSet checked(pool.dim());
  for (std::size_t i = 0; i < pool.size(); i += kCheckEvery) {
    checked.Add(pool[i]);
  }
  return ComputeGroundTruth(data, checked, kK);
}

PointSet Slice(const PointSet& pool, std::size_t begin, std::size_t count) {
  PointSet out(pool.dim());
  for (std::size_t i = begin; i < begin + count; ++i) out.Add(pool[i]);
  return out;
}

/// knn-*: single-caller Query and QueryBatch of 64, interleaved block by
/// block, both cycling over a seeded query pool.
void RunKnn(Ctx& ctx, const PointSet& data, const PointSet& pool,
            bool quantized) {
  const Engines engines = SetUp(ctx, data, quantized);
  const ParallelSearchEngine& engine = *engines.measured;
  const std::vector<KnnResult> truth = GroundTruth(data, pool);
  const auto check = [&](std::size_t pool_index, const KnnResult& got) {
    if (pool_index % kCheckEvery != 0) return;
    ctx.report.Expect("knn_matches_oracle",
                      SameAnswer(got, truth[pool_index / kCheckEvery]),
                      "pool query " + std::to_string(pool_index));
  };

  std::vector<KnnResult> warm_results;
  const std::vector<QueryStats> warm =
      WarmUp(engine, pool, ctx.WarmQueries(), &warm_results);
  if (engines.plain != nullptr) WarmUp(*engines.plain, pool, ctx.WarmQueries());
  for (std::size_t i = 0; i < warm_results.size(); ++i) {
    check(i, warm_results[i]);
  }
  ReportQueryCounters(ctx, warm, /*deterministic=*/true);

  // Page conservation: a batch touches exactly the pages its members
  // touch alone, and answers identically.
  {
    std::vector<QueryStats> batch_stats;
    const std::vector<KnnResult> batch =
        engine.QueryBatch(Slice(pool, 0, kBatch), kK, &batch_stats);
    bool conserved = batch.size() == kBatch;
    for (std::size_t i = 0; conserved && i < kBatch; ++i) {
      const QueryStats& b = batch_stats[i];
      const QueryStats& s = warm[i];
      conserved = b.total_pages + b.directory_pages + b.buffer_hit_pages +
                          b.coalesced_reads ==
                      s.total_pages + s.directory_pages &&
                  batch[i] == warm_results[i];
    }
    ctx.report.Expect("batch_page_conservation", conserved);
  }

  std::vector<PointSet> batches;
  for (std::size_t b = 0; b < pool.size(); b += kBatch) {
    batches.push_back(Slice(pool, b, kBatch));
  }
  // Each block runs single-caller Query for half its share of the budget,
  // then QueryBatch of 64 for the other half.
  const double share_ms = ctx.args.seconds * 1e3 / (2 * kBlocks);
  std::vector<double> latency;  // single-caller Query
  Completions single;
  Completions batched;
  PhaseBreakdown phases;
  std::size_t next_query = 0;
  std::size_t next_batch = 0;
  const CpuRotation rotation;
  for (std::size_t block = 0; block < kBlocks; ++block) {
    rotation.Enter(block);
    const std::size_t block_first = latency.size();
    Clock::time_point start = Clock::now();
    Clock::time_point now = start;
    while (MsBetween(start, now) < share_ms) {
      const std::size_t q = next_query++ % pool.size();
      QueryStats stats;
      const Clock::time_point t0 = Clock::now();
      const KnnResult r =
          engine.Query(pool[q], kK, ctx.traced() ? &stats : nullptr);
      now = Clock::now();
      latency.push_back(MsBetween(t0, now));
      if (ctx.traced()) {
        ctx.tracer.RecordCall("Query", t0, now, stats.phases);
        phases += stats.phases;
      }
      check(q, r);
    }
    single.Add(latency.size() - block_first, MsBetween(start, now));

    std::size_t answered = 0;
    start = Clock::now();
    now = start;
    while (MsBetween(start, now) < share_ms) {
      const std::size_t b = next_batch++ % batches.size();
      PhaseBreakdown batch_phases;
      const Clock::time_point t0 = Clock::now();
      const std::vector<KnnResult> r = engine.QueryBatch(
          batches[b], kK, nullptr, 0, nullptr,
          ctx.traced() ? &batch_phases : nullptr);
      now = Clock::now();
      answered += r.size();
      ctx.tracer.RecordCall("QueryBatch", t0, now, batch_phases, kWorkers + 1);
      for (std::size_t i = 0; i < r.size(); ++i) check(b * kBatch + i, r[i]);
    }
    batched.Add(answered, MsBetween(start, now));
  }
  ctx.report.attempted += single.ops + batched.ops;
  ctx.report.Set("p50_ms", Percentile(latency, 0.50), latency.size());
  ctx.report.Set("tail_ms", Percentile(latency, 0.99), latency.size());
  const double batch_qps = batched.Rate();
  ctx.report.Set("throughput", batch_qps, batched.ops);
  if (ctx.traced()) {
    ReportPhases(ctx, phases, latency.size());
    ctx.report.Set("parallel.batch_scaling", batch_qps / single.Rate());
    MeasureQueryOverhead(ctx, engines, pool);
  }
}

/// Checks a join answer: every pair ordered, unique, within epsilon and
/// carrying its exactly recomputed distance; and, for `samples` seeded
/// points, exactly the partners a brute-force ball query finds.
void CheckJoin(Ctx& ctx, const PointSet& data, double epsilon,
               const JoinResult& join, std::size_t samples) {
  const Metric metric;
  bool pairs_ok = join.stats.pairs_emitted == join.pairs.size();
  for (std::size_t i = 0; pairs_ok && i < join.pairs.size(); ++i) {
    const JoinPair& p = join.pairs[i];
    pairs_ok = p.a < p.b && p.b < data.size() &&
               (i == 0 || join.pairs[i - 1] < p) && p.distance <= epsilon &&
               p.distance == metric.FromComparable(
                                 metric.Comparable(data[p.a], data[p.b]));
  }
  ctx.report.Expect("join_pairs_within_epsilon", pairs_ok);

  Rng rng(SubSeed(ctx.args.seed, 41));
  std::vector<PointId> sampled(samples);
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> slot(data.size(), kNone);
  for (std::size_t s = 0; s < samples; ++s) {
    sampled[s] = static_cast<PointId>(rng.NextBounded(data.size()));
    slot[sampled[s]] = s;
  }
  std::vector<std::vector<Neighbor>> partners(samples);
  for (const JoinPair& p : join.pairs) {
    if (slot[p.a] != kNone) partners[slot[p.a]].push_back({p.b, p.distance});
    if (slot[p.b] != kNone) partners[slot[p.b]].push_back({p.a, p.distance});
  }
  const auto by_id = [](const Neighbor& x, const Neighbor& y) {
    return x.id < y.id;
  };
  std::vector<char> complete(samples, 0);
  ThreadPool pool(kWorkers);
  pool.ParallelFor(0, samples, [&](std::size_t s) {
    const PointId id = sampled[s];
    KnnResult expected = BruteForceBallQuery(data, data[id], epsilon);
    std::erase_if(expected, [&](const Neighbor& n) { return n.id == id; });
    std::vector<Neighbor> got = partners[slot[id]];
    std::sort(expected.begin(), expected.end(), by_id);
    std::sort(got.begin(), got.end(), by_id);
    complete[s] = got == expected;
  });
  ctx.report.Expect("join_complete_on_samples",
                    std::all_of(complete.begin(), complete.end(),
                                [](char c) { return c != 0; }));

  // Page conservation: every swept block pair touches one (self) or two
  // (cross) leaf pages, each either read or coalesced onto an earlier read.
  const JoinStats& st = join.stats;
  ctx.report.Expect("join_page_conservation",
                    st.total_pages + st.buffer_hit_pages + st.coalesced_reads ==
                        2 * st.block_pairs_swept - st.leaf_blocks);
}

bool SameJoinCounters(const JoinStats& a, const JoinStats& b) {
  return a.pairs_emitted == b.pairs_emitted &&
         a.block_pairs_swept == b.block_pairs_swept &&
         a.total_pages == b.total_pages &&
         a.coalesced_reads == b.coalesced_reads &&
         a.quantized_pruned == b.quantized_pruned &&
         a.reranked == b.reranked && a.parallel_ms == b.parallel_ms;
}

/// join-clustered-sq8: repeated SelfJoin at a fixed epsilon.
void RunJoin(Ctx& ctx) {
  constexpr double kEpsilon = 0.0586;
  // A seeded 200k-point sample of a fixed 250k-point clustered fixture:
  // the seed varies the input while the cluster layout stays put.
  const PointSet fixture = GenerateClusteredGaussian(
      ctx.Scaled(250000), kDim, 32, 0.02, kDataSeed);
  std::vector<std::size_t> chosen(fixture.size());
  std::iota(chosen.begin(), chosen.end(), std::size_t{0});
  Rng rng(SubSeed(ctx.args.seed, 1));
  rng.Shuffle(&chosen);
  chosen.resize(ctx.Scaled(200000));
  std::sort(chosen.begin(), chosen.end());
  PointSet data(kDim);
  for (const std::size_t i : chosen) data.Add(fixture[i]);
  const Engines engines = SetUp(ctx, data, /*quantized=*/true);
  const ParallelSearchEngine& engine = *engines.measured;
  JoinOptions options;  // threads = 0: the engine's kWorkers
  options.profile_phases = ctx.traced();

  // Untimed first join: warm-up, counters and the correctness oracle.
  const JoinResult first = engine.SelfJoin(kEpsilon, options);
  CheckJoin(ctx, data, kEpsilon, first, ctx.args.smoke ? 100 : 500);
  const JoinStats& st = first.stats;
  ctx.report.Set("makespan_ms", st.parallel_ms, 1);
  ctx.report.counters["makespan_ms"] = st.parallel_ms;
  ctx.report.SetCounter("io.data_pages_per_op",
                        static_cast<double>(st.total_pages));
  ctx.report.SetCounter("io.directory_pages_per_op",
                        static_cast<double>(st.directory_pages));
  ctx.report.SetCounter("io.max_disk_pages_per_op",
                        static_cast<double>(st.max_pages));
  ctx.report.SetCounter("io.balance", st.balance);
  const double candidates =
      static_cast<double>(st.quantized_pruned + st.reranked);
  ctx.report.SetCounter("geometry.candidates_per_op", candidates);
  ctx.report.SetCounter(
      "geometry.prune_ratio",
      candidates > 0 ? static_cast<double>(st.quantized_pruned) / candidates
                     : 0.0);
  ctx.report.SetCounter("geometry.leaf_bytes_per_op",
                        static_cast<double>(st.leaf_bytes_scanned));
  ctx.report.SetCounter(
      "parallel.join_block_pairs_swept_frac",
      static_cast<double>(st.block_pairs_swept) /
          static_cast<double>(std::max<std::uint64_t>(
              st.block_pairs_considered, 1)));
  ctx.report.SetCounter("parallel.join_coalesced_reads",
                        static_cast<double>(st.coalesced_reads));
  ctx.report.SetCounter("parallel.join_pairs",
                        static_cast<double>(st.pairs_emitted));

  std::vector<double> latency;
  PhaseBreakdown phases;
  const double budget_ms = ctx.args.seconds * 1e3;
  const Clock::time_point start = Clock::now();
  const CpuRotation rotation;
  while (MsBetween(start, Clock::now()) < budget_ms || latency.size() < 3) {
    rotation.Enter(latency.size());
    const Clock::time_point t0 = Clock::now();
    const JoinResult r = engine.SelfJoin(kEpsilon, options);
    const Clock::time_point t1 = Clock::now();
    latency.push_back(MsBetween(t0, t1));
    ctx.tracer.RecordCall("SelfJoin", t0, t1, r.stats.phases, kWorkers + 1);
    phases += r.stats.phases;
    ctx.report.Expect("join_repeats_identically",
                      r.pairs == first.pairs &&
                          SameJoinCounters(r.stats, first.stats));
  }
  ctx.report.attempted += latency.size();
  ctx.report.Set("p50_ms", Percentile(latency, 0.50), latency.size());
  // Only 30 to 45 joins fit a run: p99 would be the slowest join, and p75
  // leaves about ten beyond it.
  ctx.report.Set("tail_ms", Percentile(latency, 0.75), latency.size());
  const double join_ms = std::accumulate(latency.begin(), latency.end(), 0.0);
  ctx.report.Set("throughput",
                 static_cast<double>(st.pairs_emitted * latency.size()) /
                     join_ms * 1e3,
                 latency.size());
  if (!ctx.traced()) return;
  ReportPhases(ctx, phases, latency.size());

  // Overhead: joins with phase profiling off vs on, alternating.
  JoinOptions plain = options;
  plain.profile_phases = false;
  double plain_ms = 0.0;
  double traced_ms = 0.0;
  for (int rep = 0; rep < 2; ++rep) {
    Clock::time_point t0 = Clock::now();
    (void)engine.SelfJoin(kEpsilon, plain);
    plain_ms += MsBetween(t0, Clock::now());
    t0 = Clock::now();
    const JoinResult r = engine.SelfJoin(kEpsilon, options);
    ctx.tracer.RecordCall("SelfJoin(overhead)", t0, Clock::now(),
                          r.stats.phases, kWorkers + 1);
    traced_ms += MsBetween(t0, Clock::now());
  }
  ctx.report.Set("trace.overhead_frac", traced_ms / plain_ms - 1.0, 2);
}

/// rw-fourier-sq8: closed single-caller cycles of {Insert one new point,
/// 8 Query, Remove one live point}. Every write drops the leaf-block and
/// route caches, so the queries pay their rebuild.
void RunReadWrite(Ctx& ctx) {
  const std::size_t n = ctx.Scaled(250000);
  const std::size_t spare = ctx.Scaled(50000);  // points to insert
  const PointSet all = GenerateFourierPoints(n + spare, kDim, kDataSeed);
  const PointSet data = Slice(all, 0, n);
  const PointSet pool =
      SampleQueriesFromData(data, kPool, 0.01, SubSeed(ctx.args.seed, 2));
  const Engines engines = SetUp(ctx, data, /*quantized=*/true);
  ParallelSearchEngine& engine = *engines.measured;
  WarmUp(engine, pool, ctx.WarmQueries());
  if (engines.plain != nullptr) WarmUp(*engines.plain, pool, ctx.WarmQueries());
  MeasureQueryOverhead(ctx, engines, pool);  // before any write

  // The live set: ids are positions in `all`.
  std::vector<PointId> live(n);
  for (std::size_t i = 0; i < n; ++i) live[i] = static_cast<PointId>(i);
  Rng rng(SubSeed(ctx.args.seed, 3));
  // Queries of the first cycles feed the deterministic counters.
  const std::size_t counted_cycles = ctx.args.smoke ? 20 : 100;
  std::vector<QueryStats> counted;
  std::vector<double> insert_ms, remove_ms;
  std::vector<double> latency;  // Query
  Completions calls;              // Insert, Query, Remove
  PhaseBreakdown phases;
  std::size_t cycles = 0;
  const double share_ms = ctx.args.seconds * 1e3 / kBlocks;
  const CpuRotation rotation;
  for (std::size_t block = 0; block < kBlocks && cycles < spare; ++block) {
    rotation.Enter(block);
    const std::size_t first_cycle = cycles;
    const Clock::time_point start = Clock::now();
    Clock::time_point now = start;
    for (; cycles < spare &&
           (MsBetween(start, now) < share_ms || cycles < counted_cycles);
         ++cycles) {
      const auto id = static_cast<PointId>(n + cycles);
      Clock::time_point t0 = Clock::now();
      Status status = engine.Insert(all[id], id);
      now = Clock::now();
      insert_ms.push_back(MsBetween(t0, now));
      ctx.tracer.Record("Insert", t0, now);
      if (status.ok()) {
        live.push_back(id);
      } else {
        ++ctx.report.failed;
      }

      for (std::size_t j = 0; j < 8; ++j) {
        const std::size_t q = (8 * cycles + j) % pool.size();
        const bool want_stats = ctx.traced() || cycles < counted_cycles;
        QueryStats stats;
        t0 = Clock::now();
        (void)engine.Query(pool[q], kK, want_stats ? &stats : nullptr);
        now = Clock::now();
        latency.push_back(MsBetween(t0, now));
        if (ctx.traced()) {
          ctx.tracer.RecordCall("Query", t0, now, stats.phases);
          phases += stats.phases;
        }
        if (cycles < counted_cycles) counted.push_back(stats);
      }

      const std::size_t victim = rng.NextBounded(live.size());
      const PointId gone = live[victim];
      t0 = Clock::now();
      status = engine.Remove(all[gone], gone);
      now = Clock::now();
      remove_ms.push_back(MsBetween(t0, now));
      ctx.tracer.Record("Remove", t0, now);
      if (status.ok()) {
        live[victim] = live.back();
        live.pop_back();
      } else {
        ++ctx.report.failed;
      }
    }
    // Ten calls per cycle: Insert, 8 Query, Remove.
    calls.Add(10 * (cycles - first_cycle), MsBetween(start, now));
  }
  ctx.report.attempted += calls.ops;

  // The final index must answer like a linear scan over the live set.
  PointSet live_points(kDim);
  for (const PointId id : live) live_points.Add(all[id]);
  for (std::size_t q = 0; q < pool.size(); q += kCheckEvery) {
    KnnResult expected = BruteForceKnn(live_points, pool[q], kK);
    for (Neighbor& nb : expected) nb.id = live[nb.id];
    ctx.report.Expect("rw_matches_live_oracle",
                      SameAnswer(engine.Query(pool[q], kK), expected),
                      "pool query " + std::to_string(q));
  }
  ctx.report.Expect("rw_size_tracks_live_set", engine.size() == live.size());

  ReportQueryCounters(ctx, counted, /*deterministic=*/true);
  ctx.report.Set("p50_ms", Percentile(latency, 0.50), latency.size());
  ctx.report.Set("tail_ms", Percentile(latency, 0.99), latency.size());
  ctx.report.Set("throughput", calls.Rate(), calls.ops);
  if (!ctx.traced()) return;
  ReportPhases(ctx, phases, latency.size());
  ctx.report.Set("index.insert_ms_p50", Percentile(insert_ms, 0.5),
                 insert_ms.size());
  ctx.report.Set("index.remove_ms_p50", Percentile(remove_ms, 0.5),
                 remove_ms.size());
}

// ---------------------------------------------------------------------
// Fixed-rate open loop. Arrivals are Poisson at an absolute rate that is
// never calibrated at run time; 20% are bulk (k = 100), the rest
// interactive (k = 10). Each query is timed from its due time, so a
// generator or service stall counts against every query it delays.

struct Arrival {
  double due_ms = 0.0;  // offset from the phase start
  bool bulk = false;
  std::size_t query = 0;  // pool index
};

std::vector<Arrival> PoissonArrivals(double rate_qps, double seconds,
                                     std::size_t pool_size, Rng* rng) {
  std::vector<Arrival> out;
  double t = 0.0;
  while (true) {
    t += rng->NextExponential(rate_qps / 1e3);
    if (t > seconds * 1e3) return out;
    Arrival a;
    a.due_ms = t;
    a.bulk = rng->NextBernoulli(0.2);
    a.query = static_cast<std::size_t>(rng->NextBounded(pool_size));
    out.push_back(a);
  }
}

struct Served {
  Arrival arrival;
  bool accepted = false;
  double lag_ms = 0.0;       // due -> Submit
  double from_due_ms = 0.0;  // due -> resolution
  double end_ms = 0.0;       // phase start -> resolution
  ServedResult result;
};

/// Submits each arrival at its due time on the calling thread, spinning on
/// the clock in between (a sleeping generator's CPU halts and wakes late,
/// see KeepAwake), then collects every answer.
std::vector<Served> DriveOpenLoop(Ctx& ctx, QueryService& service,
                                  const PointSet& pool,
                                  const std::vector<Arrival>& schedule,
                                  bool record_spans) {
  std::vector<Served> out(schedule.size());
  std::vector<std::future<ServedResult>> futures(schedule.size());
  std::vector<Clock::time_point> due(schedule.size());
  std::vector<Clock::time_point> submit(schedule.size());
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const Arrival& a = schedule[i];
    due[i] = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double, std::milli>(a.due_ms));
    while (Clock::now() < due[i]) {
    }
    ServiceQueryOptions opts;
    opts.k = a.bulk ? kBulkK : kK;
    opts.priority = a.bulk ? QueryClass::kBulk : QueryClass::kInteractive;
    submit[i] = Clock::now();
    const Status status = service.Submit(pool[a.query], opts, &futures[i]);
    out[i].arrival = a;
    out[i].accepted = status.ok();
    out[i].lag_ms = MsBetween(due[i], submit[i]);
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (!out[i].accepted) continue;
    Served& s = out[i];
    s.result = futures[i].get();
    s.from_due_ms = s.lag_ms + s.result.latency_ms;
    s.end_ms = MsBetween(start, submit[i]) + s.result.latency_ms;
    if (!record_spans) continue;
    const auto at = [&](double ms) {
      return submit[i] + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double, std::milli>(ms));
    };
    const int id = ctx.tracer.Record("Submit", due[i], at(s.result.latency_ms));
    ctx.tracer.Record("lag", due[i], submit[i], id);
    ctx.tracer.Record("queue", submit[i], at(s.result.queue_ms), id);
  }
  return out;
}

/// What a closed loop completed.
struct ClosedLoop {
  Completions completions;
  std::size_t failed = 0;
  /// Interactive latencies, Submit -> resolution; a failed query is
  /// infinitely late.
  std::vector<double> interactive_ms;
};

/// Closed loop of `callers` callers that each wait for their answer before
/// sending the next query, for `ms`: this thread keeps `callers` queries
/// outstanding, awaits the oldest and replaces it; at the end it awaits
/// the rest uncounted. Adds to `out`; every kCheckEvery-th answer is
/// appended to `sampled` for the oracle check.
void DriveClosedLoop(QueryService& service, const PointSet& pool,
                     std::size_t callers, double ms, Rng* rng, ClosedLoop* out,
                     std::vector<Served>* sampled) {
  struct Outstanding {
    Arrival arrival;
    std::future<ServedResult> future;
  };
  std::deque<Outstanding> window;
  const auto submit = [&] {
    Outstanding o;
    o.arrival.bulk = rng->NextBernoulli(0.2);
    o.arrival.query = static_cast<std::size_t>(rng->NextBounded(pool.size()));
    ServiceQueryOptions opts;
    opts.k = o.arrival.bulk ? kBulkK : kK;
    opts.priority =
        o.arrival.bulk ? QueryClass::kBulk : QueryClass::kInteractive;
    // At most max_queue queries wait, so Submit never rejects.
    PARSIM_CHECK(service.Submit(pool[o.arrival.query], opts, &o.future).ok());
    window.push_back(std::move(o));
  };
  PARSIM_CHECK(callers <= service.options().max_queue);
  while (window.size() < callers) submit();
  const Clock::time_point start = Clock::now();
  std::size_t completed = 0;
  while (MsBetween(start, Clock::now()) < ms) {
    Served s;
    s.arrival = window.front().arrival;
    s.accepted = true;
    s.result = window.front().future.get();
    window.pop_front();
    const bool ok = s.result.status.ok();
    out->failed += !ok;
    if (!s.arrival.bulk) {
      out->interactive_ms.push_back(
          ok ? s.result.latency_ms : std::numeric_limits<double>::infinity());
    }
    if ((out->completions.ops + completed) % kCheckEvery == 0) {
      sampled->push_back(std::move(s));
    }
    ++completed;
    submit();
  }
  out->completions.Add(completed, MsBetween(start, Clock::now()));
  for (Outstanding& o : window) o.future.get();
}

/// One rate of the ladder: its interactive p99 from due, and whether it
/// held (no rejection, p99 within the limit, backlog drained).
struct Rung {
  double rate = 0.0;
  double p99_ms = 0.0;
  bool passed = false;
};

constexpr double kLatencyLimitMs = 2.0;

/// The rate at which interactive p99 reaches the limit: interpolated in
/// log-log between the highest passing rung and the rung above it, so a
/// stall that fails one low rung does not decide the estimate.
double Capacity(const std::vector<Rung>& rungs) {
  std::size_t j = rungs.size();
  while (j > 0 && !rungs[j - 1].passed) --j;
  if (j == rungs.size()) return rungs.back().rate;  // censored at the top
  const Rung& hi = rungs[j];
  if (j == 0) return hi.rate * std::min(1.0, kLatencyLimitMs / hi.p99_ms);
  const Rung& lo = rungs[j - 1];
  if (hi.p99_ms <= kLatencyLimitMs || lo.p99_ms <= 0.0) return lo.rate;
  const double f = (std::log(kLatencyLimitMs) - std::log(lo.p99_ms)) /
                   (std::log(hi.p99_ms) - std::log(lo.p99_ms));
  return std::exp(std::log(lo.rate) +
                  f * (std::log(hi.rate) - std::log(lo.rate)));
}

/// Interactive latencies from due time. A query the service refused or
/// failed misses any latency limit, so it counts as infinitely late.
std::vector<double> InteractiveFromDue(const std::vector<Served>& served) {
  std::vector<double> out;
  for (const Served& s : served) {
    if (s.arrival.bulk) continue;
    out.push_back(s.accepted && s.result.status.ok()
                      ? s.from_due_ms
                      : std::numeric_limits<double>::infinity());
  }
  return out;
}

/// serve-fourier-sq8: QueryService behind a single waiting caller, a
/// fixed-rate open loop at the nominal rate and a saturating closed loop,
/// interleaved block by block, then a ladder of rates.
void RunServe(Ctx& ctx) {
  constexpr double kNominalQps = 2000.0;
  // The gated latency comes from one caller that waits for each answer
  // before it sends the next query: a query's path through a service that
  // has nothing else to do. In the open loop a host stall of D ms delays
  // every arrival due during it and the backlog behind them. With several
  // waiting callers their queries share rounds, so a query's latency
  // depends on when the host wakes the callers' thread to send the next
  // one: on a 4-core KVM guest, 4 callers gave an interactive p50 of
  // 0.25-0.31 ms in one hour and 0.53-0.65 ms in another, while
  // knn-fourier-exact read 0.09-0.11 ms in both. One caller, alternating
  // with the 4 in the second hour, read 0.190-0.191 ms.
  constexpr std::size_t kCallers = 1;
  const PointSet data =
      GenerateFourierPoints(ctx.Scaled(250000), kDim, kDataSeed);
  const PointSet pool =
      SampleQueriesFromData(data, kPool, 0.01, SubSeed(ctx.args.seed, 2));
  const Engines engines = SetUp(ctx, data, /*quantized=*/true);
  const ParallelSearchEngine& engine = *engines.measured;
  WarmUp(engine, pool, ctx.WarmQueries());
  if (engines.plain != nullptr) WarmUp(*engines.plain, pool, ctx.WarmQueries());
  MeasureQueryOverhead(ctx, engines, pool);

  Rng rng(SubSeed(ctx.args.seed, 3));
  QueryService service(engine);  // default ServiceOptions: serial rounds
  // Started before the dispatcher, so the dispatcher is the one thread
  // Start adds.
  std::optional<KeepAwake> awake(std::in_place);
  const std::vector<pid_t> before_start = ThreadIds();
  service.Start();
  // Rotating the dispatcher and the generator over distinct CPUs keeps
  // them apart; the idle-priority spinner follows the dispatcher, so its
  // CPU never halts while it waits for work. 0 = not found.
  pid_t dispatcher = 0;
  for (const pid_t id : ThreadIds()) {
    if (std::find(before_start.begin(), before_start.end(), id) ==
        before_start.end()) {
      dispatcher = dispatcher == 0 ? id : -1;
    }
  }
  if (dispatcher < 0) dispatcher = 0;
  const std::vector<pid_t> service_threads = {dispatcher, awake->tid()};
  const CpuRotation rotation;
  // Untimed warm-up of the service's lazily grown scheduler state.
  (void)DriveOpenLoop(ctx, service, pool,
                      PoissonArrivals(kNominalQps, 0.25, pool.size(), &rng),
                      false);

  // Each of the kBlocks blocks runs the waiting caller, the open loop at
  // the nominal rate and the saturating closed loop in turn, for 55%, 15%
  // and 20% of the budget, so that every phase samples the host over the
  // whole run. The ladder takes the last 10%.
  const double block_ms = ctx.args.seconds * 1e3 / kBlocks;
  std::vector<Served> sampled;
  ClosedLoop caller;
  ClosedLoop saturated;
  std::vector<Served> steady;
  std::uint64_t steady_rounds = 0;
  std::uint64_t steady_rejected = 0;
  double ema_prune_rate = 1.0;  // as the last open-loop block left it
  for (std::size_t b = 0; b < kBlocks; ++b) {
    rotation.Enter(b, service_threads);
    DriveClosedLoop(service, pool, kCallers, block_ms * 0.55, &rng, &caller,
                    &sampled);
    const ServiceMetrics before = service.metrics();
    const std::vector<Served> part = DriveOpenLoop(
        ctx, service, pool,
        PoissonArrivals(kNominalQps, block_ms * 0.15 / 1e3, pool.size(),
                        &rng),
        ctx.traced());
    const ServiceMetrics after = service.metrics();
    steady_rounds += after.rounds - before.rounds;
    steady_rejected += after.rejected - before.rejected;
    ema_prune_rate = after.ema_prune_rate;
    steady.insert(steady.end(), part.begin(), part.end());
    DriveClosedLoop(service, pool, service.options().max_queue,
                    block_ms * 0.2, &rng, &saturated, &sampled);
  }

  std::vector<Rung> rungs;
  std::vector<std::vector<Served>> ladder;
  for (const double rate : {2000.0, 2500.0, 3200.0, 4000.0, 5000.0}) {
    rotation.Enter(rungs.size(), service_threads);
    ladder.push_back(DriveOpenLoop(
        ctx, service, pool,
        PoissonArrivals(rate, ctx.args.seconds * 0.02, pool.size(), &rng),
        false));
    const std::vector<Served>& served = ladder.back();
    Rung rung;
    rung.rate = rate;
    rung.p99_ms = Percentile(InteractiveFromDue(served), 0.99);
    bool rejected = false;
    double last_due = 0.0;
    double last_end = 0.0;
    for (const Served& s : served) {
      rejected = rejected || !s.accepted;
      last_due = std::max(last_due, s.arrival.due_ms);
      last_end = std::max(last_end, s.end_ms);
    }
    rung.passed = !rejected && rung.p99_ms <= kLatencyLimitMs &&
                  last_due >= 0.98 * last_end;
    rungs.push_back(rung);
  }
  service.Stop();
  awake.reset();

  // Sampled answers must be bit-identical to engine.Query.
  std::vector<const std::vector<Served>*> phases = {&steady};
  for (const std::vector<Served>& rung : ladder) phases.push_back(&rung);
  std::size_t index = 0;
  for (const std::vector<Served>* phase : phases) {
    for (const Served& s : *phase) {
      if (index++ % kCheckEvery == 0) sampled.push_back(s);
    }
  }
  for (const Served& s : sampled) {
    if (!s.accepted || !s.result.status.ok()) continue;
    const KnnResult expected =
        engine.Query(pool[s.arrival.query], s.arrival.bulk ? kBulkK : kK);
    ctx.report.Expect("served_matches_query", s.result.neighbors == expected);
  }

  // Failures are counted with the waiting caller and at the nominal rate;
  // the ladder probes for the rate where the service stops keeping up.
  ctx.report.attempted += caller.completions.ops;
  ctx.report.failed += caller.failed;
  std::vector<double> queue_ms, lag_ms;
  std::vector<QueryStats> stats;
  double rounds = 0.0;
  for (const Served& s : steady) {
    ++ctx.report.attempted;
    lag_ms.push_back(s.lag_ms);
    if (!s.accepted || !s.result.status.ok()) {
      ++ctx.report.failed;
      continue;
    }
    queue_ms.push_back(s.result.queue_ms);
    rounds += static_cast<double>(s.result.rounds);
    stats.push_back(s.result.stats);
  }
  const std::vector<double>& latency = caller.interactive_ms;
  ctx.report.Set("p50_ms", Percentile(latency, 0.50), latency.size());
  ctx.report.Set("tail_ms", Percentile(latency, 0.99), latency.size());
  ctx.report.Set("throughput", saturated.completions.Rate(),
                 saturated.completions.ops);
  // Round composition decides who pays a shared page, so served stats
  // are not deterministic.
  ReportQueryCounters(ctx, stats, /*deterministic=*/false);
  if (!ctx.traced()) return;
  const std::vector<double> from_due = InteractiveFromDue(steady);
  ctx.report.Set("service.open_loop_p50_ms", Percentile(from_due, 0.50),
                 from_due.size());
  ctx.report.Set("service.open_loop_p95_ms", Percentile(from_due, 0.95),
                 from_due.size());
  ctx.report.Set("service.queue_p50_ms", Percentile(queue_ms, 0.50),
                 queue_ms.size());
  ctx.report.Set("service.queue_p99_ms", Percentile(queue_ms, 0.99),
                 queue_ms.size());
  ctx.report.Set("service.rounds_per_query",
                 rounds / static_cast<double>(std::max<std::size_t>(
                              stats.size(), 1)));
  ctx.report.Set("service.round_width",
                 rounds / static_cast<double>(
                              std::max<std::uint64_t>(steady_rounds, 1)));
  ctx.report.Set("service.ema_prune_rate", ema_prune_rate);
  ctx.report.Set("service.rejected", static_cast<double>(steady_rejected));
  ctx.report.Set("service.generator_lag_p99_ms", Percentile(lag_ms, 0.99),
                 lag_ms.size());
  ctx.report.Set("service.capacity_qps", Capacity(rungs), rungs.size());
}

// ---------------------------------------------------------------------
// Entry point.

constexpr const char* kWorkloads[] = {
    "knn-uniform-sq8", "knn-fourier-exact", "serve-fourier-sq8",
    "join-clustered-sq8", "rw-fourier-sq8"};

void RunWorkload(Ctx& ctx) {
  const std::string& w = ctx.args.workload;
  const std::uint64_t seed = ctx.args.seed;
  if (w == "knn-uniform-sq8") {
    RunKnn(ctx,
           GenerateUniform(ctx.Scaled(250000), kDim, kDataSeed),
           GenerateUniformQueries(kPool, kDim, SubSeed(seed, 2)),
           /*quantized=*/true);
  } else if (w == "knn-fourier-exact") {
    const PointSet data =
        GenerateFourierPoints(ctx.Scaled(250000), kDim, kDataSeed);
    RunKnn(ctx, data,
           SampleQueriesFromData(data, kPool, 0.01, SubSeed(seed, 2)),
           /*quantized=*/false);
  } else if (w == "serve-fourier-sq8") {
    RunServe(ctx);
  } else if (w == "join-clustered-sq8") {
    RunJoin(ctx);
  } else {
    RunReadWrite(ctx);
  }
}

bool WriteLedger(const Ctx& ctx, Kind kind) {
  std::FILE* f = std::fopen(ctx.args.ledger_path.c_str(), "w");
  if (f == nullptr) return false;
  const Report& r = ctx.report;
  std::fprintf(f,
               "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n"
               "  \"seconds\": %.17g,\n  \"trace\": %s,\n  \"smoke\": %s,\n"
               "  \"correct\": %s,\n  \"attempted\": %llu,\n"
               "  \"failed\": %llu,\n  \"failed_frac\": %.17g,\n",
               ctx.args.workload.c_str(),
               static_cast<unsigned long long>(ctx.args.seed),
               ctx.args.seconds, ctx.traced() ? "true" : "false",
               ctx.args.smoke ? "true" : "false",
               r.correct() ? "true" : "false",
               static_cast<unsigned long long>(r.attempted),
               static_cast<unsigned long long>(r.failed),
               r.attempted > 0 ? static_cast<double>(r.failed) /
                                     static_cast<double>(r.attempted)
                               : 0.0);
  std::fprintf(f, "  \"checks\": [");
  for (std::size_t i = 0; i < r.checks.size(); ++i) {
    std::fprintf(f, "%s\n    {\"name\": \"%s\", \"passed\": %s}",
                 i == 0 ? "" : ",", r.checks[i].name.c_str(),
                 r.checks[i].passed ? "true" : "false");
  }
  std::fprintf(f, "\n  ],\n  \"metrics\": {");
  bool first = true;
  for (const MetricSpec& spec : kMetrics) {
    if (spec.kind != kind) continue;
    const auto it = r.metrics.find(spec.name);
    const Report::Value v =
        it == r.metrics.end() ? Report::Value{} : it->second;
    std::fprintf(f,
                 "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                 "\"better\": \"%s\", \"samples\": %zu}",
                 first ? "" : ",", spec.name, v.value, spec.unit,
                 spec.higher_is_better ? "higher" : "lower", v.samples);
    first = false;
  }
  std::fprintf(f, "\n  },\n  \"counters\": {");
  first = true;
  for (const auto& [name, value] : r.counters) {
    std::fprintf(f, "%s\n    \"%s\": %.17g", first ? "" : ",", name.c_str(),
                 value);
    first = false;
  }
  std::fprintf(f, "\n  }\n}\n");
  return std::fclose(f) == 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perf_ledger --workload W --seed S --seconds T "
               "--ledger FILE [--trace-file FILE] [--smoke]\n");
  return 2;
}

int Main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (flag == "--seed" && has_value) {
      args.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (flag == "--seconds" && has_value) {
      args.seconds = std::strtod(argv[++i], nullptr);
    } else if (flag == "--ledger" && has_value) {
      args.ledger_path = argv[++i];
    } else if (flag == "--trace-file" && has_value) {
      args.trace_path = argv[++i];
    } else {
      return Usage();
    }
  }
  int workload_id = -1;
  for (int w = 0; w < static_cast<int>(std::size(kWorkloads)); ++w) {
    if (args.workload == kWorkloads[w]) workload_id = w;
  }
  if (workload_id < 0 || args.ledger_path.empty() ||
      !(args.seconds > 0.0 && args.seconds <= 600.0)) {
    return Usage();
  }

  Ctx ctx{args, Tracer(!args.trace_path.empty(), workload_id), Report{}};
  RunWorkload(ctx);

  const Kind kind = ctx.traced() ? Kind::kLayer : Kind::kEndToEnd;
  if (ctx.traced()) {
    ctx.report.Set("trace.unattributed_frac", ctx.tracer.UnattributedFrac());
    if (!ctx.tracer.Write(args.trace_path, args.workload, args.seed)) {
      std::fprintf(stderr, "perf_ledger: cannot write %s\n",
                   args.trace_path.c_str());
      return 2;
    }
  }
  for (const MetricSpec& spec : kMetrics) {
    if (spec.kind != kind) continue;
    const auto it = ctx.report.metrics.find(spec.name);
    if (it == ctx.report.metrics.end()) {
      if (kind == Kind::kEndToEnd) {
        std::fprintf(stderr, "perf_ledger: %s did not measure %s\n",
                     args.workload.c_str(), spec.name);
        return 2;
      }
      std::printf("%s %s 0 %s (not applicable)\n", args.workload.c_str(),
                  spec.name, spec.unit);
      continue;
    }
    if (!std::isfinite(it->second.value)) {
      // A percentile reached the failed operations, which count as
      // infinitely late: the run has no latency to report.
      std::fprintf(stderr, "perf_ledger: %s is not finite\n", spec.name);
      return 2;
    }
    std::printf("%s %s %.6g %s", args.workload.c_str(), spec.name,
                it->second.value, spec.unit);
    if (it->second.samples > 0) std::printf(" n=%zu", it->second.samples);
    std::printf("\n");
  }
  std::printf("%s attempted %llu failed %llu correct %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(ctx.report.attempted),
              static_cast<unsigned long long>(ctx.report.failed),
              ctx.report.correct() ? "yes" : "NO");
  if (!WriteLedger(ctx, kind)) {
    std::fprintf(stderr, "perf_ledger: cannot write %s\n",
                 args.ledger_path.c_str());
    return 2;
  }
  return ctx.report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace parsim

int main(int argc, char** argv) { return parsim::Main(argc, argv); }
