// A fixed-size worker pool for real (wall-clock) parallelism.
//
// The simulator's *accounting* stays deterministic and single-threaded in
// spirit — simulated time is computed from page counters, never measured —
// but executing many queries concurrently needs real threads. This pool is
// shared by the engine's QueryBatch, the federated fan-out and the
// throughput driver, so the process keeps one set of long-lived workers
// instead of spawning threads per query.
//
// ParallelFor is deadlock-free under nesting: the calling thread always
// participates in the loop body, so a worker that issues a nested
// ParallelFor makes progress even when every other worker is busy.

#ifndef PARSIM_SRC_UTIL_THREAD_POOL_H_
#define PARSIM_SRC_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace parsim {

/// A fixed-size pool of worker threads with a shared FIFO task queue,
/// fed by ParallelFor.
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 = std::thread::hardware_concurrency,
  /// at least 1). The workers live until destruction.
  explicit ThreadPool(unsigned num_threads = 0);

  /// Joins the workers. Every task is a ParallelFor helper, and
  /// ParallelFor returns only after its helpers ran, so no task is
  /// queued by then.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned size() const { return static_cast<unsigned>(workers_.size()); }

  /// Runs body(i) for every i in [begin, end), distributing iterations
  /// over the workers *and* the calling thread; returns when all
  /// iterations finished. If any body throws, the loop stops handing out
  /// new iterations and the first exception is rethrown here. Safe to
  /// call from inside a pool task (the caller self-executes).
  void ParallelFor(std::size_t begin, std::size_t end,
                   const std::function<void(std::size_t)>& body);

 private:
  void Enqueue(std::function<void()> task);
  void WorkerLoop();
  /// Pops and runs one queued task on the calling thread; false when the
  /// queue was empty. Lets a thread blocked in ParallelFor help drain the
  /// queue instead of idling (work-stealing wait).
  bool RunOneTask();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace parsim

#endif  // PARSIM_SRC_UTIL_THREAD_POOL_H_
