// The pausable round scheduler under coalesced batch k-NN
// (ParallelSearchEngine::QueryBatch with coalesced_batch) and the query
// service: many HS best-first searches (src/index/hs_search.h) over ONE
// shared tree advance in lock-step rounds.
//
// Each round, every running query exposes the node its search needs
// next; queries requesting the same node form a group, and the group
// fetches the page ONCE. The leader — the group's lowest slot — pays the
// simulated I/O through the normal buffered, fault-aware read path; the
// other members book the pages they were spared as coalesced_reads (and,
// on a degraded route, their replica/unavailable pages, so fault
// semantics stay per-query), and a failed primary's retry penalty is
// paid once per group. The members then expand the node together: a
// directory through each member's ExpandDirectory, a leaf through one
// many-to-many sweep (SweepLeafBlockMany) of every member against every
// point of the page.
//
// Each query's push/pop sequence is the one single-query HsKnn runs:
// both drive the same HsSearch, and the batched sweep emits each
// member's candidates exactly as the one-member sweep does. Results are
// therefore bit-identical to per-query execution; the accounting differs
// exactly where coalescing saves work. The schedule is deterministic at
// any thread count: the fetch phase — the only one touching shared
// state, the buffer-pool LRU — runs serially in ascending (node, slot)
// order, and the expansion phase, which may fan out over a pool, touches
// each query in exactly one group per round.
//
// A closed batch admits every query up front (a fresh scheduler hands
// out slots 0, 1, 2, ... in Add order), steps until nothing runs, and
// takes each slot. The query service uses the rest:
//
//   * continuous admission — Add() may be called between any two rounds;
//     a query's sequence depends only on its own frontier, so joining or
//     leaving a round never changes another query's result;
//   * per-query k — members of one round may search for different k;
//   * per-query page budgets — a query whose page work reaches its
//     budget expires at round granularity and keeps the best-first
//     prefix found so far (pops leave the frontier in ascending key
//     order, so the prefix is exactly the true top-m). Wall-clock
//     deadlines are the caller's policy: call Expire() before a round.
//
// Slots are reused through a free list, so a long-lived service reaches
// a steady state where rounds allocate nothing. Only one thread may call
// Add/Step/Expire/Take; Step's expansion phase fans out over the given
// pool internally.

#ifndef PARSIM_SRC_PARALLEL_ROUND_SCHEDULER_H_
#define PARSIM_SRC_PARALLEL_ROUND_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/geometry/metric.h"
#include "src/geometry/point.h"
#include "src/index/hs_search.h"
#include "src/index/knn.h"
#include "src/index/tree_base.h"
#include "src/io/cost_capture.h"
#include "src/util/phase_timer.h"
#include "src/util/thread_pool.h"

namespace parsim {

class HsRoundScheduler {
 public:
  /// `tree`, `metric` and `phases` must outlive the scheduler;
  /// `approx_factor` is the approximate tier's comparable-scale factor
  /// (1.0 = exact; see HsKnn); `phases` (nullable) receives the
  /// wall-clock phase breakdown of all scheduling and expansion work,
  /// summed over worker threads.
  HsRoundScheduler(const TreeBase& tree, const Metric& metric,
                   double approx_factor = 1.0,
                   PhaseAccumulator* phases = nullptr);

  /// Admits one k-NN query. The coordinates are copied into the slot;
  /// `acc` (sized num_disks + 1, the engine layout) receives the query's
  /// charges and must outlive the slot. `max_pages` > 0 expires the
  /// query once QueryCostAccumulator::TotalPagesTouched() reaches it
  /// (checked before every round); 0 = unbudgeted. Returns the slot id.
  std::size_t Add(PointView query, std::size_t k, QueryCostAccumulator* acc,
                  std::uint64_t max_pages = 0);

  /// Runs one coalesced round over every running query: budget-expires
  /// exhausted slots, collects requests, fetches each distinct node once
  /// (serial, ascending (node, slot) order), expands groups over `pool`
  /// (nullptr = serial). Returns the number of still-running queries;
  /// 0 means every admitted query is finished or expired.
  std::size_t Step(ThreadPool* pool);

  /// True while the slot has neither finished nor expired.
  bool IsRunning(std::size_t slot) const { return states_[slot].running(); }
  /// True when the slot stopped on a budget/deadline with a partial
  /// result rather than completing its search.
  bool IsExpired(std::size_t slot) const {
    return states_[slot].live && states_[slot].expired;
  }

  /// Expires a running slot now (wall-clock deadlines); its result so
  /// far is kept. No-op on a finished slot.
  void Expire(std::size_t slot);

  /// Finalizes a finished or expired slot: books its frontier counters
  /// into the accumulator's host slot (where HsKnn books them), frees
  /// the slot for reuse, and moves the result out.
  KnnResult Take(std::size_t slot);

  /// Queries admitted and not yet taken, running or settled.
  std::size_t occupied() const { return occupied_; }

 private:
  /// One admitted query: its best-first search plus the scheduling
  /// state around it.
  struct QueryState {
    HsSearch search;
    /// This slot's query coordinates (owned; dim() scalars).
    std::vector<Scalar> query;
    QueryCostAccumulator* acc = nullptr;
    /// Page budget; 0 = unbudgeted.
    std::uint64_t max_pages = 0;
    /// The node the search needs next (HsSearch::Next); kInvalidNodeId
    /// once the query finished or expired.
    NodeId request = kInvalidNodeId;
    bool live = false;
    bool expired = false;

    bool running() const { return live && request != kInvalidNodeId; }
  };

  const TreeBase& tree_;
  const Metric& metric_;
  const double approx_factor_;
  PhaseAccumulator* phases_;
  std::size_t dim_;
  std::vector<QueryState> states_;
  std::vector<std::size_t> free_slots_;
  std::size_t occupied_ = 0;
  std::size_t running_ = 0;

  // Round scratch, reused across Step calls.
  struct Group {
    NodeId node;
    // Indices into requests_ delimiting this group's members.
    std::size_t begin;
    std::size_t end;
    const Node* accessed = nullptr;
    TreeBase::DiskRoute route;
  };
  std::vector<std::pair<NodeId, std::size_t>> requests_;  // (node, slot)
  std::vector<Group> groups_;
};

}  // namespace parsim

#endif  // PARSIM_SRC_PARALLEL_ROUND_SCHEDULER_H_
