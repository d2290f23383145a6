// Per-query cost capture: the mechanism that makes read-only queries
// safe to execute concurrently without giving up the simulator's
// deterministic accounting.
//
// A query allocates a QueryCostAccumulator (one DiskStats slot per
// simulated disk, plus one for the query host) and installs it with a
// ScopedCostCapture for the duration of its traversal. While a capture is
// active on a thread, every charge a SimulatedDisk would normally apply
// to its shared counters is recorded in the accumulator slot of that
// disk instead — traversal never mutates shared disk state, so any number
// of queries can run in parallel. At query end the engine derives the
// QueryStats from the accumulator (bit-identical to the old
// reset-charge-read protocol, because the same increments feed the same
// formulas) and folds the counters into the shared cumulative stats under
// a lock.
//
// The capture pointer is thread_local: worker threads of a batch each
// install the accumulator of the query they are currently executing.

#ifndef PARSIM_SRC_IO_COST_CAPTURE_H_
#define PARSIM_SRC_IO_COST_CAPTURE_H_

#include <cstddef>
#include <vector>

#include "src/io/disk_model.h"
#include "src/util/check.h"

namespace parsim {

/// Local cost counters for one query: one DiskStats per charge target.
/// Slot i belongs to disk id i; the engine sizes the accumulator as
/// num_disks + 1 so the query host (id == num_disks) gets the last slot.
class QueryCostAccumulator {
 public:
  explicit QueryCostAccumulator(std::size_t num_slots) : slots_(num_slots) {}

  DiskStats& slot(std::size_t id) {
    PARSIM_DCHECK(id < slots_.size());
    return slots_[id];
  }
  const DiskStats& slot(std::size_t id) const {
    PARSIM_DCHECK(id < slots_.size());
    return slots_[id];
  }
  std::size_t num_slots() const { return slots_.size(); }

  /// Pages of index work this query has consumed so far, summed over all
  /// slots and invariant under buffering and coalescing: charged reads
  /// plus buffer hits plus coalesced rides all count. The query service's
  /// page budgets meter against this, so a budget means the same amount
  /// of logical work whether or not a buffer pool or a batch happens to
  /// absorb the I/O.
  std::uint64_t TotalPagesTouched() const {
    std::uint64_t total = 0;
    for (const DiskStats& s : slots_) {
      total += s.TotalPagesRead() + s.buffer_hit_pages + s.coalesced_reads;
    }
    return total;
  }

 private:
  std::vector<DiskStats> slots_;
};

namespace internal_cost {

inline thread_local QueryCostAccumulator* g_active_capture = nullptr;

}  // namespace internal_cost

/// The accumulator charges on this thread are currently routed to, or
/// nullptr when charges go to the shared disk counters (serial protocol).
inline QueryCostAccumulator* ActiveCostCapture() {
  return internal_cost::g_active_capture;
}

/// RAII installer of a capture on the current thread. Nestable (the
/// previous capture is restored on destruction), though the engine never
/// nests captures in practice.
class ScopedCostCapture {
 public:
  explicit ScopedCostCapture(QueryCostAccumulator* accumulator)
      : previous_(internal_cost::g_active_capture) {
    internal_cost::g_active_capture = accumulator;
  }
  ~ScopedCostCapture() { internal_cost::g_active_capture = previous_; }

  ScopedCostCapture(const ScopedCostCapture&) = delete;
  ScopedCostCapture& operator=(const ScopedCostCapture&) = delete;

 private:
  QueryCostAccumulator* previous_;
};

}  // namespace parsim

#endif  // PARSIM_SRC_IO_COST_CAPTURE_H_
