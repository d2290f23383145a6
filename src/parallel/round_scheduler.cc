#include "src/parallel/round_scheduler.h"

#include <algorithm>
#include <utility>

#include "src/index/leaf_block.h"
#include "src/index/leaf_sweep.h"
#include "src/util/check.h"

namespace parsim {

void HsRoundScheduler::QueryState::Push(const Item& item) {
  queue.push_back(item);
  std::push_heap(queue.begin(), queue.end(), GreaterKey{});
  ++frontier.frontier_pushes;
}

HsRoundScheduler::QueryState::Item HsRoundScheduler::QueryState::Pop() {
  std::pop_heap(queue.begin(), queue.end(), GreaterKey{});
  const Item item = queue.back();
  queue.pop_back();
  ++frontier.frontier_pops;
  return item;
}

void HsRoundScheduler::QueryState::PushPoint(double key, std::uint32_t id) {
  if (bound.size() < k) {
    bound.push_back(key);
    std::push_heap(bound.begin(), bound.end());
  } else if (key > bound.front()) {
    return;
  } else if (key < bound.front()) {
    std::pop_heap(bound.begin(), bound.end());
    bound.back() = key;
    std::push_heap(bound.begin(), bound.end());
  }
  Push(Item{key, true, id});
}

HsRoundScheduler::HsRoundScheduler(const TreeBase& tree, const Metric& metric,
                                   const ApproxContext& approx,
                                   PhaseAccumulator* phases)
    : tree_(tree),
      metric_(metric),
      approx_(approx),
      phases_(phases),
      dim_(tree.dim()) {}

// Replays HsKnn's main loop until the query finishes or needs a node:
// points pop into the result, the first node item pauses the query with
// `request` set (Step fetches and expands it). node_factor > 1 is the
// approximate tier's early-termination mode: a popped node whose key
// exceeds the RELAXED cutoff bound/node_factor is dropped instead of
// requested — exactly HsKnn's pop-time skip, so the page its group would
// have fetched is saved.
void HsRoundScheduler::Advance(QueryState* q) {
  ScopedPhase phase(Phase::kFrontier);
  q->request = kInvalidNodeId;
  while (q->result.size() < q->k && !q->queue.empty()) {
    const QueryState::Item item = q->Pop();
    if (item.is_point) {
      q->result.push_back(
          Neighbor{item.ref, metric_.FromComparable(item.key)});
      continue;
    }
    if (approx_.node_factor > 1.0 && q->bound.size() >= q->k &&
        item.key > q->bound.front() / approx_.node_factor) {
      ++q->frontier.approx_skipped_nodes;
      continue;
    }
    q->request = item.ref;
    return;
  }
  q->done = true;
}

void HsRoundScheduler::ExpireState(QueryState* q) {
  if (q->done) return;
  q->done = true;
  q->expired = true;
  q->request = kInvalidNodeId;
}

std::size_t HsRoundScheduler::Add(PointView query, std::size_t k,
                                  QueryCostAccumulator* acc,
                                  std::uint64_t max_pages) {
  PARSIM_CHECK(k >= 1);
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
  s.queue.clear();
  s.bound.clear();
  s.bound.reserve(k);
  s.query.assign(query.begin(), query.end());
  s.result.clear();
  s.acc = acc;
  s.k = k;
  s.max_pages = max_pages;
  s.request = kInvalidNodeId;
  s.live = true;
  s.done = false;
  s.expired = false;
  s.frontier = Counters{};
  ++occupied_;
  if (tree_.root_id() != kInvalidNodeId) {
    s.Push(QueryState::Item{0.0, false, tree_.root_id()});
    Advance(&s);
  } else {
    s.done = true;
  }
  if (!s.done) ++running_;
  return slot;
}

void HsRoundScheduler::Expire(std::size_t slot) {
  QueryState& s = states_[slot];
  PARSIM_CHECK(s.live);
  if (s.done) return;
  ExpireState(&s);
  --running_;
}

KnnResult HsRoundScheduler::Take(std::size_t slot) {
  QueryState& s = states_[slot];
  PARSIM_CHECK(s.live && s.done);
  // Frontier traffic books into the query's host slot — the same sink
  // HsKnn uses for single-query execution.
  s.acc->slot(s.acc->num_slots() - 1) += s.frontier;
  s.live = false;
  s.acc = nullptr;
  --occupied_;
  free_slots_.push_back(slot);
  return std::move(s.result);
}

std::size_t HsRoundScheduler::Step(ThreadPool* pool, RoundStats* round) {
  ScopedPhaseCapture phase_capture(phases_);
  if (round != nullptr) *round = RoundStats{};

  requests_.clear();
  for (std::size_t i = 0; i < states_.size(); ++i) {
    QueryState& s = states_[i];
    if (!s.live || s.done) continue;
    // Page budgets expire at round granularity: a query at or past its
    // budget stops before fetching another page, keeping its best-first
    // prefix as the partial result.
    if (s.max_pages > 0 && s.acc->TotalPagesTouched() >= s.max_pages) {
      ExpireState(&s);
      continue;
    }
    requests_.emplace_back(s.request, i);
  }
  if (requests_.empty()) {
    std::size_t running = 0;
    for (const QueryState& s : states_) {
      if (s.live && !s.done) ++running;
    }
    running_ = running;
    return running_;
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
        g.accessed = &tree_.AccessNode(g.node);
      }
      g.route = tree_.ResolveRoute(*g.accessed);
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
  // groups touch disjoint states/accumulators; leaf blocks come from
  // the tree's concurrent-read-safe cache.
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
      const LeafBlock& block = tree_.LeafBlockOf(node);
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
            // Member m's running k-th best point key — HsKnn's bound.
            // Emits only tighten m's own bound, so reading it per
            // candidate matches the single-query sweep exactly.
            return states_[requests_[g.begin + m].second].Cutoff();
          },
          [&](std::size_t m, std::size_t i, double key) {
            states_[requests_[g.begin + m].second].PushPoint(key,
                                                            block.ids[i]);
          },
          sweeps.data(), approx_.sweep_factor);
      for (std::size_t m = 0; m < members; ++m) {
        const std::size_t qi = requests_[g.begin + m].second;
        DiskStats& s = states_[qi].acc->slot(slot);
        s += sweeps[m];
        s.block_kernel_invocations += 1;
        g.pruned += sweeps[m].quantized_pruned;
        g.scored += sweeps[m].distance_computations;
        Advance(&states_[qi]);
      }
    } else {
      for (std::size_t m = 0; m < members; ++m) {
        const std::size_t qi = requests_[g.begin + m].second;
        QueryState& state = states_[qi];
        const PointView qv(state.query);
        {
          ScopedPhase phase(Phase::kDescent);
          // Fast path: children whose MINDIST strictly exceeds the
          // member's running k-th-best cutoff can never pop before the
          // k-th result and are dropped before heap insertion. Ties
          // MUST still push to preserve the pop sequence (see HsKnn).
          // Exact cut first (keeps cutoff_skipped_nodes' exact-path
          // meaning), then the approximate tier's relaxed cut — same
          // two-step as HsKnn's descent.
          const double cut = state.Cutoff();
          const double rcut =
              approx_.node_factor > 1.0 ? cut / approx_.node_factor : cut;
          for (const NodeEntry& e : node.entries) {
            double key;
            if (MinDistExceeds(e.rect, qv, metric_, cut, &key)) {
              ++state.frontier.cutoff_skipped_nodes;
              continue;
            }
            if (approx_.node_factor > 1.0 && key > rcut) {
              ++state.frontier.approx_skipped_nodes;
              continue;
            }
            state.Push(QueryState::Item{key, false, e.child});
          }
        }
        Advance(&state);
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
  std::size_t running = 0;
  for (const QueryState& s : states_) {
    if (s.live && !s.done) ++running;
  }
  running_ = running;
  return running_;
}

}  // namespace parsim
