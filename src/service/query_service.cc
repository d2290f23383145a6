#include "src/service/query_service.h"

#include <string>
#include <utility>

#include "src/util/check.h"

namespace parsim {

namespace {

double MsBetween(std::chrono::steady_clock::time_point a,
                 std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

}  // namespace

QueryService::QueryService(const ParallelSearchEngine& engine,
                           ServiceOptions options)
    : engine_(engine),
      options_(options),
      scheduler_(engine.tree(), engine.options().metric, engine.approx_factor_,
                 nullptr) {
  // The round scheduler needs the one shared tree, like QueryBatch's
  // coalesced path.
  PARSIM_CHECK(engine.options().architecture == Architecture::kSharedTree);
  PARSIM_CHECK(options_.max_queue >= 1);
  PARSIM_CHECK(options_.max_batch >= 1);
  PARSIM_CHECK(options_.interactive_weight >= 1);
  if (options_.threads > 1) pool_ = engine.EnsurePool(options_.threads);
}

QueryService::~QueryService() { Stop(); }

Status QueryService::Submit(PointView query,
                            const ServiceQueryOptions& query_options,
                            std::future<ServedResult>* result) {
  PARSIM_CHECK(result != nullptr);
  PARSIM_CHECK(query.size() == engine_.dim());
  PARSIM_CHECK(AllFinite(query));
  PARSIM_CHECK(query_options.k >= 1);
  PARSIM_CHECK(query_options.deadline_ms >= 0.0);
  Pending pending;
  pending.coords.assign(query.begin(), query.end());
  pending.opts = query_options;
  pending.submit = Clock::now();
  std::future<ServedResult> future = pending.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (PendingLocked() >= options_.max_queue) {
      ++metrics_.rejected;
      return Status::ResourceExhausted("admission queue full");
    }
    ++metrics_.submitted;
    queues_[static_cast<std::size_t>(query_options.priority)].push_back(
        std::move(pending));
  }
  cv_.notify_one();
  *result = std::move(future);
  return Status::Ok();
}

void QueryService::AdmitLocked(std::size_t budget,
                               std::vector<Pending>* admitted) {
  std::deque<Pending>& interactive = queues_[0];
  std::deque<Pending>& bulk = queues_[1];
  while (admitted->size() < budget &&
         (!interactive.empty() || !bulk.empty())) {
    bool take_bulk;
    if (bulk.empty()) {
      take_bulk = false;
    } else if (interactive.empty()) {
      take_bulk = true;
    } else {
      // Weighted dequeue: interactive first, but after interactive_weight
      // consecutive interactive admissions a waiting bulk query goes —
      // priority without starvation.
      take_bulk = interactive_credit_ >= options_.interactive_weight;
    }
    std::deque<Pending>& queue = take_bulk ? bulk : interactive;
    if (take_bulk) {
      interactive_credit_ = 0;
    } else {
      ++interactive_credit_;
    }
    admitted->push_back(std::move(queue.front()));
    queue.pop_front();
  }
}

void QueryService::PumpOnce() {
  // 1. Admission: between every round, waiting queries join until
  // max_batch are in flight.
  std::vector<Pending> admitted;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (scheduler_.occupied() < options_.max_batch) {
      AdmitLocked(options_.max_batch - scheduler_.occupied(), &admitted);
    }
  }
  const Clock::time_point admit_time = Clock::now();
  for (Pending& p : admitted) {
    auto acc =
        std::make_unique<QueryCostAccumulator>(engine_.num_disks() + 1);
    const std::size_t slot = scheduler_.Add(PointView(p.coords), p.opts.k,
                                            acc.get(), p.opts.max_pages);
    if (inflight_.size() <= slot) inflight_.resize(slot + 1);
    auto f = std::make_unique<InFlight>();
    f->admit = admit_time;
    f->acc = std::move(acc);
    f->pending = std::move(p);
    inflight_[slot] = std::move(f);
  }
  if (scheduler_.occupied() == 0) return;

  // 2. Wall deadlines, at round granularity (page budgets are checked
  // inside Step itself). The elapsed time is compared in milliseconds,
  // so an infinite or huge deadline never fires.
  const Clock::time_point now = Clock::now();
  round_slots_.clear();
  for (std::size_t slot = 0; slot < inflight_.size(); ++slot) {
    const InFlight* f = inflight_[slot].get();
    if (f == nullptr) continue;
    const double deadline_ms = f->pending.opts.deadline_ms;
    if (scheduler_.IsRunning(slot) && deadline_ms > 0.0 &&
        MsBetween(f->pending.submit, now) >= deadline_ms) {
      scheduler_.Expire(slot);
    }
    if (scheduler_.IsRunning(slot)) round_slots_.push_back(slot);
  }

  // 3. One coalesced round.
  scheduler_.Step(pool_.get());
  for (const std::size_t slot : round_slots_) ++inflight_[slot]->rounds;

  // 4. Resolve everything that finished or expired this round.
  for (std::size_t slot = 0; slot < inflight_.size(); ++slot) {
    if (inflight_[slot] != nullptr && !scheduler_.IsRunning(slot)) {
      Resolve(slot);
    }
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++metrics_.rounds;
  }
}

void QueryService::Resolve(std::size_t slot) {
  InFlight& f = *inflight_[slot];
  const bool expired = scheduler_.IsExpired(slot);
  ServedResult out;
  out.neighbors = scheduler_.Take(slot);
  out.stats = engine_.StatsFromAccumulator(*f.acc);
  engine_.MergeAccumulator(*f.acc);
  if (expired) {
    out.status = Status::DeadlineExceeded(
        "deadline or page budget expired; top-" +
        std::to_string(out.neighbors.size()) + " prefix returned");
  } else if (out.stats.unavailable_pages > 0) {
    // TryQuery's contract: unavailable data is an error, not a silent
    // in-memory answer.
    out.status = Status::Unavailable(
        "query touched a failed disk with no healthy replica");
  }
  out.latency_ms = MsBetween(f.pending.submit, Clock::now());
  out.queue_ms = MsBetween(f.pending.submit, f.admit);
  out.rounds = f.rounds;
  out.finish_seq = ++finish_seq_;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++metrics_.completed;
    if (expired) ++metrics_.expired;
  }
  std::promise<ServedResult> promise = std::move(f.pending.promise);
  inflight_[slot].reset();
  promise.set_value(std::move(out));
}

void QueryService::Start() {
  std::lock_guard<std::mutex> lock(mutex_);
  PARSIM_CHECK(!dispatcher_.joinable());
  stop_ = false;
  dispatcher_ = std::thread([this] { RunLoop(); });
}

void QueryService::RunLoop() {
  for (;;) {
    if (scheduler_.occupied() == 0) {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [&] { return stop_ || PendingLocked() > 0; });
      if (stop_ && PendingLocked() == 0) break;
    }
    PumpOnce();
  }
}

void QueryService::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
}

std::size_t QueryService::Drain() {
  PARSIM_CHECK(!dispatcher_.joinable());
  std::size_t resolved = 0;
  for (;;) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (PendingLocked() == 0 && scheduler_.occupied() == 0) break;
    }
    const std::uint64_t before = finish_seq_;
    PumpOnce();
    resolved += static_cast<std::size_t>(finish_seq_ - before);
  }
  return resolved;
}

ServiceMetrics QueryService::metrics() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return metrics_;
}

}  // namespace parsim
