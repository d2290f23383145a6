// Production query service front-end: a long-lived serving loop around
// ParallelSearchEngine for open-loop traffic (queries arrive when they
// arrive, not in closed batches).
//
// Four mechanisms turn the batch engine into a servable one:
//
//   * Admission control — a bounded queue; Submit on a full queue fails
//     fast with kResourceExhausted instead of growing latency without
//     bound (backpressure to the caller).
//   * Deadlines & budgets — per-query wall deadlines and page budgets,
//     checked at frontier-round granularity. An expired query stops
//     reading pages and resolves to kDeadlineExceeded carrying the
//     best-first prefix found so far as a partial result (the prefix is
//     exactly the true top-m: HS pops leave results in ascending
//     distance order).
//   * Priority classes — interactive and bulk queries admit through a
//     weighted dequeue: interactive work goes first, but after
//     `interactive_weight` consecutive interactive admissions a waiting
//     bulk query is admitted, so neither class starves.
//   * Adaptive batch formation — instead of the fixed round expander
//     (closed batches of max_batch run to completion, the pre-service
//     QueryBatch shape), the service admits BETWEEN rounds into a round
//     width sized from observed queue depth and the EMA of recent prune
//     rates: cheap (well-pruning) rounds widen toward max_batch,
//     expensive ones narrow toward min_batch. Continuous admission is
//     what stops convoying — a cheap interactive query joins the very
//     next round instead of waiting behind a bulk scan's whole batch.
//
// Results are bit-identical to ParallelSearchEngine::QueryBatch (and
// single-query HsKnn) whenever no deadline fires: a query's push/pop
// sequence depends only on its own frontier, never on round composition
// (see src/parallel/round_scheduler.h).
//
// Threading: Submit is safe from any thread. The scheduler runs either
// on the internal dispatcher thread (Start/Stop) or inline on the
// caller (Drain — deterministic, for tests and closed-loop harnesses).
// The engine must be kSharedTree + kHs; one service per engine at a
// time (the round scheduler is not shared).

#ifndef PARSIM_SRC_SERVICE_QUERY_SERVICE_H_
#define PARSIM_SRC_SERVICE_QUERY_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/parallel/engine.h"
#include "src/parallel/round_scheduler.h"
#include "src/util/status.h"

namespace parsim {

/// Priority class of a submitted query.
enum class QueryClass {
  /// Latency-sensitive foreground work; admitted first.
  kInteractive = 0,
  /// Throughput work (large k, scans); yields to interactive queries.
  kBulk = 1,
};

/// Per-query options at Submit time.
struct ServiceQueryOptions {
  std::size_t k = 10;
  QueryClass priority = QueryClass::kInteractive;
  /// Page budget: the query expires once its pages touched (reads +
  /// buffer hits + coalesced rides, summed over disks — see
  /// QueryCostAccumulator::TotalPagesTouched) reach this. 0 = none.
  std::uint64_t max_pages = 0;
  /// Wall-clock deadline from Submit, in milliseconds. 0 = none.
  double deadline_ms = 0.0;
};

/// What a submitted query resolves to.
struct ServedResult {
  /// Ok; kDeadlineExceeded (deadline/budget expired, `neighbors` holds
  /// the partial prefix); or kUnavailable (a touched page had no healthy
  /// copy — TryQuery's contract).
  Status status;
  KnnResult neighbors;
  /// The engine's per-query simulated accounting (same derivation as
  /// Query/QueryBatch).
  QueryStats stats;
  /// Submit -> resolution, wall clock.
  double latency_ms = 0.0;
  /// Submit -> admission into the first round, wall clock.
  double queue_ms = 0.0;
  /// Coalesced rounds this query was active in.
  std::size_t rounds = 0;
  /// Service-wide completion sequence number (1, 2, ...): a total order
  /// on resolutions, for priority/ordering assertions in tests.
  std::uint64_t finish_seq = 0;
};

/// Service configuration.
struct ServiceOptions {
  /// Bound of the admission (waiting) queue across both classes; Submit
  /// beyond it returns kResourceExhausted.
  std::size_t max_queue = 256;
  /// Round width bounds. max_batch is also the fixed mode's batch size.
  std::size_t max_batch = 64;
  std::size_t min_batch = 4;
  /// true: continuous admission with the adaptive width (the service's
  /// raison d'etre). false: the fixed round expander baseline — closed
  /// FIFO batches of max_batch run to completion, the convoying-prone
  /// shape QueryBatch has always had.
  bool adaptive_batch = true;
  /// Consecutive interactive admissions allowed while bulk work waits.
  std::size_t interactive_weight = 4;
  /// Worker threads for the round expansion phase (0 or 1 = serial).
  unsigned threads = 0;
};

/// Cumulative service counters (monotone; snapshot via metrics()).
struct ServiceMetrics {
  std::uint64_t submitted = 0;  // accepted into the queue
  std::uint64_t rejected = 0;   // kResourceExhausted at Submit
  std::uint64_t completed = 0;  // resolved, including expired
  std::uint64_t expired = 0;    // resolved as kDeadlineExceeded
  std::uint64_t rounds = 0;     // scheduler rounds run
  /// Width the last admission round targeted (adaptive mode).
  std::size_t last_width = 0;
  /// Current EMA of the per-round leaf prune rate in [0, 1].
  double ema_prune_rate = 1.0;
};

class QueryService {
 public:
  /// `engine` must outlive the service, be kSharedTree + kHs, and not
  /// mutate (Insert/Remove/SetFaultPlan) while queries are in flight —
  /// the engine's standing read-query contract.
  explicit QueryService(const ParallelSearchEngine& engine,
                        ServiceOptions options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Submits one k-NN query. On admission (Ok) `*result` receives a
  /// future that resolves when the query completes or expires; on a full
  /// queue returns kResourceExhausted and leaves `*result` alone. A
  /// query with a NaN or infinite coordinate fails a PARSIM_CHECK, as in
  /// ParallelSearchEngine::Query. Thread-safe.
  Status Submit(PointView query, const ServiceQueryOptions& query_options,
                std::future<ServedResult>* result);

  /// Spawns the background dispatcher thread. Queries submitted before
  /// Start wait in the queue.
  void Start();

  /// Graceful shutdown: drains the queue and all in-flight work, then
  /// joins the dispatcher. Idempotent; also run by the destructor.
  void Stop();

  /// Inline dispatcher for deterministic runs (tests, closed harnesses):
  /// pumps rounds on the calling thread until no query is waiting or in
  /// flight. Must not be mixed with a running dispatcher thread. Returns
  /// the number of queries resolved by this call.
  std::size_t Drain();

  ServiceMetrics metrics() const;
  const ServiceOptions& options() const { return options_; }

 private:
  using Clock = std::chrono::steady_clock;

  struct Pending {
    std::vector<Scalar> coords;
    ServiceQueryOptions opts;
    std::promise<ServedResult> promise;
    Clock::time_point submit;
  };

  struct InFlight {
    Pending pending;
    Clock::time_point admit;
    /// Absolute wall deadline; Clock::time_point::max() when none.
    Clock::time_point deadline;
    std::unique_ptr<QueryCostAccumulator> acc;
    std::size_t rounds = 0;
  };

  /// One dispatcher iteration: admit, expire deadlines, run one round,
  /// resolve settled queries. Caller must be the only scheduler user.
  void PumpOnce();
  /// Admits up to `budget` queries by weighted priority (mutex_ held).
  void AdmitLocked(std::size_t budget, std::vector<Pending>* admitted);
  /// Adaptive round width from queue depth and the prune-rate EMA.
  std::size_t TargetWidth(std::size_t waiting) const;
  void Resolve(std::size_t slot);
  std::size_t PendingLocked() const {
    return queues_[0].size() + queues_[1].size();
  }
  void RunLoop();

  const ParallelSearchEngine& engine_;
  const ServiceOptions options_;
  HsRoundScheduler scheduler_;
  std::shared_ptr<ThreadPool> pool_;

  mutable std::mutex mutex_;  // queues, metrics, stop flag
  std::condition_variable cv_;
  std::deque<Pending> queues_[2];  // [interactive, bulk]
  ServiceMetrics metrics_;
  bool stop_ = false;
  std::thread dispatcher_;

  // Dispatcher-thread state (no lock needed).
  std::vector<std::unique_ptr<InFlight>> inflight_;  // by scheduler slot
  std::vector<std::size_t> round_slots_;  // slots active in this round
  std::size_t interactive_credit_ = 0;
  double ema_prune_ = 1.0;
  std::uint64_t finish_seq_ = 0;
};

}  // namespace parsim

#endif  // PARSIM_SRC_SERVICE_QUERY_SERVICE_H_
