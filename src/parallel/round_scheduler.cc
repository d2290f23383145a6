#include "src/parallel/round_scheduler.h"

#include <algorithm>
#include <utility>

#include "src/index/leaf_sweep.h"
#include "src/util/check.h"

namespace parsim {

HsRoundScheduler::HsRoundScheduler(const TreeBase& tree, const Metric& metric,
                                   const ApproxContext& approx,
                                   PhaseAccumulator* phases)
    : tree_(tree),
      metric_(metric),
      approx_(approx),
      phases_(phases),
      dim_(tree.dim()) {}

std::size_t HsRoundScheduler::Add(PointView query, std::size_t k,
                                  QueryCostAccumulator* acc,
                                  std::uint64_t max_pages) {
  PARSIM_CHECK(acc != nullptr);
  PARSIM_CHECK(query.size() == dim_);
  ScopedPhaseCapture phase_capture(phases_);
  std::size_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = states_.size();
    states_.emplace_back();
  }
  QueryState& s = states_[slot];
  s.search.Start(tree_.root_id(), k, metric_, approx_);
  s.query.assign(query.begin(), query.end());
  s.acc = acc;
  s.max_pages = max_pages;
  s.live = true;
  s.expired = false;
  s.request = s.search.Next();
  ++occupied_;
  if (s.running()) ++running_;
  return slot;
}

void HsRoundScheduler::Expire(std::size_t slot) {
  QueryState& s = states_[slot];
  PARSIM_CHECK(s.live);
  if (!s.running()) return;
  s.request = kInvalidNodeId;
  s.expired = true;
  --running_;
}

KnnResult HsRoundScheduler::Take(std::size_t slot) {
  QueryState& s = states_[slot];
  PARSIM_CHECK(s.live && !s.running());
  // Frontier traffic books into the query's host slot — the same sink
  // HsKnn uses for single-query execution.
  s.acc->slot(s.acc->num_slots() - 1) += s.search.frontier;
  s.live = false;
  s.acc = nullptr;
  --occupied_;
  free_slots_.push_back(slot);
  return std::move(s.search.result);
}

std::size_t HsRoundScheduler::Step(ThreadPool* pool, RoundStats* round) {
  ScopedPhaseCapture phase_capture(phases_);
  if (round != nullptr) *round = RoundStats{};

  requests_.clear();
  for (std::size_t i = 0; i < states_.size(); ++i) {
    QueryState& s = states_[i];
    if (!s.running()) continue;
    // Page budgets expire at round granularity: a query at or past its
    // budget stops before fetching another page, keeping its best-first
    // prefix as the partial result.
    if (s.max_pages > 0 && s.acc->TotalPagesTouched() >= s.max_pages) {
      s.request = kInvalidNodeId;
      s.expired = true;
      continue;
    }
    requests_.emplace_back(s.request, i);
  }
  // Ascending (node id, slot index): the grouping — and with it the
  // buffer-pool access order below — is a pure function of the
  // frontiers and the admission order, so the whole schedule is
  // deterministic at any thread count.
  std::sort(requests_.begin(), requests_.end());
  groups_.clear();
  for (std::size_t i = 0; i < requests_.size();) {
    std::size_t j = i;
    while (j < requests_.size() && requests_[j].first == requests_[i].first) {
      ++j;
    }
    groups_.push_back(Group{requests_[i].first, i, j, nullptr, {}, 0, 0});
    i = j;
  }

  // Phase 1 (serial): each group fetches its node once. The leader —
  // the group's lowest slot index — pays the read through the normal
  // buffered, fault-aware path; every other member books the pages it
  // was spared as coalesced_reads (plus its share of the degraded-read
  // accounting, which stays per-query). This is the only phase that
  // touches shared state (the buffer-pool LRU), so running it in sorted
  // group order keeps buffered costs reproducible. Retry penalties of a
  // failed primary (failed_read_attempts) are paid once per group by
  // the leader — coalescing collapses the per-query retry storm by
  // design.
  {
    ScopedPhase io_phase(Phase::kIo);
    for (Group& g : groups_) {
      const std::size_t leader = requests_[g.begin].second;
      {
        ScopedCostCapture capture(states_[leader].acc);
        g.accessed = &tree_.AccessNode(g.node, &g.route);
      }
      const std::size_t slot = g.route.disk->id();
      for (std::size_t m = g.begin + 1; m < g.end; ++m) {
        DiskStats& s = states_[requests_[m].second].acc->slot(slot);
        s.coalesced_reads += g.accessed->pages;
        if (g.route.failover) s.replica_pages += g.accessed->pages;
        if (g.route.unavailable) s.unavailable_pages += g.accessed->pages;
      }
    }
  }

  // Phase 2 (parallelizable): expand each group into its members'
  // frontiers. Every query sits in exactly one group per round, so
  // groups touch disjoint states/accumulators; leaf blocks are read
  // from the nodes, which no query writes.
  const auto expand = [&](std::size_t gi) {
    // Pool workers do not inherit the scheduler thread's thread-local
    // phase capture; re-install it so their sweep/descent/frontier time
    // lands in the same accumulator.
    ScopedPhaseCapture pc(phases_);
    Group& g = groups_[gi];
    const Node& node = *g.accessed;
    const std::size_t members = g.end - g.begin;
    const std::size_t slot = g.route.disk->id();
    if (node.IsLeaf()) {
      const LeafBlock& block = node.block;
      // One many-to-many kernel call scores every member query against
      // every point of the page (uint8 q x n reduction first on a
      // quantized block, with per-member bound pruning — see
      // src/index/leaf_sweep.h). Scratch is thread-local: the rounds
      // allocate nothing in steady state.
      thread_local std::vector<Scalar> qbuf;
      thread_local std::vector<Counters> sweeps;
      qbuf.resize(members * dim_);
      for (std::size_t m = 0; m < members; ++m) {
        const QueryState& state = states_[requests_[g.begin + m].second];
        std::copy(state.query.begin(), state.query.end(),
                  qbuf.data() + m * dim_);
      }
      sweeps.assign(members, Counters{});
      SweepLeafBlockMany(
          block, qbuf.data(), members, metric_,
          [&](std::size_t m) {
            // Emits only tighten m's own bound, so reading it per
            // candidate matches the one-member sweep exactly.
            return states_[requests_[g.begin + m].second].search.Cutoff();
          },
          [&](std::size_t m, std::size_t i, double key) {
            states_[requests_[g.begin + m].second].search.PushPoint(
                key, block.ids[i]);
          },
          sweeps.data(), approx_.sweep_factor);
      for (std::size_t m = 0; m < members; ++m) {
        const std::size_t qi = requests_[g.begin + m].second;
        DiskStats& s = states_[qi].acc->slot(slot);
        s += sweeps[m];
        s.block_kernel_invocations += 1;
        g.pruned += sweeps[m].quantized_pruned;
        g.scored += sweeps[m].distance_computations;
        states_[qi].request = states_[qi].search.Next();
      }
    } else {
      for (std::size_t m = 0; m < members; ++m) {
        QueryState& state = states_[requests_[g.begin + m].second];
        state.search.ExpandDirectory(node, state.query);
        state.request = state.search.Next();
      }
    }
  };
  if (pool != nullptr && groups_.size() > 1) {
    pool->ParallelFor(0, groups_.size(), expand);
  } else {
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) expand(gi);
  }

  if (round != nullptr) {
    round->groups = groups_.size();
    round->members = requests_.size();
    for (const Group& g : groups_) {
      round->pruned += g.pruned;
      round->scored += g.scored;
    }
  }
  running_ = 0;
  for (const QueryState& s : states_) {
    if (s.running()) ++running_;
  }
  return running_;
}

}  // namespace parsim
