// The pausable round scheduler under both batched k-NN execution and the
// query service: a set of HS best-first searches over ONE shared tree
// advances in lock-step coalesced rounds (see src/parallel/batch_knn.h
// for the round/group/leader semantics and the bit-identity argument).
//
// This class generalizes the closed-batch scheduler in three ways the
// service front-end needs:
//
//   * continuous admission — Add() may be called between any two rounds;
//     a query's push/pop sequence depends only on its own frontier, so
//     joining or leaving a round never changes any other query's result
//     (each remains bit-identical to single-query HsKnn);
//   * per-query k — members of one round may search for different k;
//   * per-query page budgets — a query whose accumulated page work
//     reaches its budget is expired at round granularity: it stops
//     requesting pages and keeps the best-first prefix found so far as a
//     partial result (pops leave the frontier in ascending key order, so
//     the prefix is exactly the true top-m). Wall-clock deadlines are
//     the caller's clock policy: call Expire() before a round.
//
// Slots are reused through a free list, so a long-lived service reaches
// a steady state where rounds allocate nothing. Only one thread may call
// Add/Step/Expire/Take (the scheduling thread); Step's expansion phase
// fans out over the given pool internally.

#ifndef PARSIM_SRC_PARALLEL_ROUND_SCHEDULER_H_
#define PARSIM_SRC_PARALLEL_ROUND_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/geometry/metric.h"
#include "src/geometry/point.h"
#include "src/index/knn.h"
#include "src/index/tree_base.h"
#include "src/io/cost_capture.h"
#include "src/util/phase_timer.h"
#include "src/util/thread_pool.h"

namespace parsim {

class HsRoundScheduler {
 public:
  /// `tree`, `metric`, `approx` and `phases` must outlive the scheduler;
  /// `phases` (nullable) receives the wall-clock phase breakdown of all
  /// scheduling and expansion work, summed over worker threads.
  HsRoundScheduler(const TreeBase& tree, const Metric& metric,
                   const ApproxContext& approx = ApproxContext(),
                   PhaseAccumulator* phases = nullptr);

  /// Admits one k-NN query. The coordinates are copied into the slot;
  /// `acc` (sized num_disks + 1, the engine layout) receives the query's
  /// charges and must outlive the slot. `max_pages` > 0 expires the
  /// query once QueryCostAccumulator::TotalPagesTouched() reaches it
  /// (checked before every round); 0 = unbudgeted. Returns the slot id.
  std::size_t Add(PointView query, std::size_t k, QueryCostAccumulator* acc,
                  std::uint64_t max_pages = 0);

  /// Aggregate outcome of one round, feeding adaptive batch formation.
  struct RoundStats {
    /// Distinct nodes fetched (groups formed).
    std::size_t groups = 0;
    /// Query-node expansions served (>= groups; the difference is
    /// coalesced rides).
    std::size_t members = 0;
    /// Leaf candidates the quantized bounds killed before exact work
    /// (the members' quantized_pruned) across the round. Frontier
    /// cutoff and approx skips are not in it.
    std::uint64_t pruned = 0;
    /// Leaf candidates that reached an exact float kernel.
    std::uint64_t scored = 0;
  };

  /// Runs one coalesced round over every running query: budget-expires
  /// exhausted slots, collects requests, fetches each distinct node once
  /// (serial, ascending (node, slot) order), expands groups over `pool`
  /// (nullptr = serial). Returns the number of still-running queries;
  /// 0 means every admitted query is finished or expired. `round`
  /// (nullable) receives this round's aggregates.
  std::size_t Step(ThreadPool* pool, RoundStats* round = nullptr);

  /// True while the slot has neither finished nor expired.
  bool IsRunning(std::size_t slot) const {
    return states_[slot].live && !states_[slot].done;
  }
  /// True when the slot stopped on a budget/deadline with a partial
  /// result rather than completing its search.
  bool IsExpired(std::size_t slot) const {
    return states_[slot].live && states_[slot].expired;
  }

  /// Expires a running slot now (wall-clock deadlines); its result so
  /// far is kept. No-op on a finished slot.
  void Expire(std::size_t slot);

  /// Finalizes a finished or expired slot: books its frontier counters
  /// into the accumulator's host slot (HsKnn's frontier sink),
  /// frees the slot for reuse, and moves the result out.
  KnnResult Take(std::size_t slot);

  /// Queries admitted and not yet taken, running or settled.
  std::size_t occupied() const { return occupied_; }
  /// Queries still running (admitted, neither finished nor expired).
  std::size_t running() const { return running_; }

 private:
  /// One query's pausable best-first search; the queue/bound structures
  /// replay HsKnn exactly (see src/parallel/batch_knn.h).
  struct QueryState {
    struct Item {
      double key;
      bool is_point;
      std::uint32_t ref;  // NodeId or PointId
    };
    struct GreaterKey {
      bool operator()(const Item& a, const Item& b) const {
        return a.key > b.key;
      }
    };
    /// Binary min-heap via push_heap/pop_heap with GreaterKey — the
    /// exact algorithm std::priority_queue runs internally, in reusable
    /// storage that is reserved once and never reallocated in steady
    /// state. Identical pop sequence.
    std::vector<Item> queue;
    /// Max-heap of the k smallest point keys pushed so far — HsKnn's
    /// pruning bound. Points beyond it can never pop before the k-th
    /// result does, so skipping them is invisible to the pop sequence
    /// but keeps the frontier small enough that a wide round stays
    /// cache resident.
    std::vector<double> bound;
    /// This slot's query coordinates (owned; dim() scalars).
    std::vector<Scalar> query;
    KnnResult result;
    QueryCostAccumulator* acc = nullptr;
    std::size_t k = 0;
    /// Page budget; 0 = unbudgeted.
    std::uint64_t max_pages = 0;
    /// The node the frontier needs next; kInvalidNodeId while none.
    NodeId request = kInvalidNodeId;
    bool live = false;
    bool done = false;
    bool expired = false;
    /// This query's frontier traffic, booked into its host stats slot by
    /// Take (where HsKnn books it for single-query execution).
    Counters frontier;

    void Push(const Item& item);
    Item Pop();
    void PushPoint(double key, std::uint32_t id);
    /// HsKnn's running comparable-space cutoff: the k-th best point key,
    /// +inf while fewer than k points were pushed.
    double Cutoff() const {
      return bound.size() < k ? std::numeric_limits<double>::infinity()
                              : bound.front();
    }
  };

  /// Replays HsKnn's main loop until the query finishes or needs a node.
  void Advance(QueryState* q);
  void ExpireState(QueryState* q);

  const TreeBase& tree_;
  const Metric& metric_;
  const ApproxContext& approx_;
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
    // Per-group prune/score aggregates, summed into RoundStats after
    // the (possibly parallel) expansion phase.
    std::uint64_t pruned = 0;
    std::uint64_t scored = 0;
  };
  std::vector<std::pair<NodeId, std::size_t>> requests_;  // (node, slot)
  std::vector<Group> groups_;
};

}  // namespace parsim

#endif  // PARSIM_SRC_PARALLEL_ROUND_SCHEDULER_H_
