// Batched multi-query k-NN with cross-query page-read coalescing.
//
// A batch of HS best-first searches over ONE shared tree advances in
// lock-step rounds. Each round, every still-active query exposes the next
// node its frontier needs; queries requesting the same node form a group,
// the group fetches the page ONCE (the lowest-indexed member — the leader
// — pays the simulated I/O through the normal buffered/fault-aware read
// path), and the members' searches then expand it together: for a leaf,
// one many-to-many kernel call (Metric::ComparableBlock) over the leaf's
// SoA block evaluates every member query against every point of the page.
//
// Per query, the push/pop sequence of its best-first priority queue is
// exactly the one the single-query HsKnn would execute, so the returned
// neighbor lists are bit-identical to per-query execution. The cost
// accounting differs exactly where coalescing saves work: followers of a
// group record the pages they did NOT read as `coalesced_reads` (and, on
// a degraded route, still record their replica/unavailable pages so
// fault semantics are per-query), and retry penalties of a failed
// primary are paid once per group by the leader instead of once per
// query.
//
// The round structure makes the schedule deterministic at any thread
// count: the fetch phase runs serially in ascending (node id, query
// index) order — it is the only phase touching shared state (the buffer
// pool LRU) — and the expansion phase, which may fan out over a thread
// pool, touches each query in exactly one group per round.

#ifndef PARSIM_SRC_PARALLEL_BATCH_KNN_H_
#define PARSIM_SRC_PARALLEL_BATCH_KNN_H_

#include <cstddef>
#include <vector>

#include "src/geometry/metric.h"
#include "src/geometry/point.h"
#include "src/index/knn.h"
#include "src/index/tree_base.h"
#include "src/io/cost_capture.h"
#include "src/util/phase_timer.h"
#include "src/util/thread_pool.h"

namespace parsim {

/// Runs the whole batch of k-NN queries over `tree` with page-read
/// coalescing. `accs` must hold one accumulator per query, each sized
/// num_disks + 1 (the engine's layout); per-query charges land there.
/// `pool` parallelizes the expansion phase (nullptr or a single group
/// per round = serial). Results are bit-identical to per-query HsKnn.
/// When `phases` is non-null, wall-clock time is attributed to it per
/// phase (src/util/phase_timer.h), summed over all worker threads —
/// batch-level only, since coalesced rounds interleave all queries.
/// `approx` (default: exact) enables the (1+eps)-approximate tier with
/// the same semantics as HsKnn's — node skips and relaxed sweeps apply
/// per member, and the schedule stays deterministic at any thread count
/// (the skips depend only on each member's own frontier state).
std::vector<KnnResult> CoalescedHsBatch(
    const TreeBase& tree, const PointSet& queries, std::size_t k,
    const Metric& metric, std::vector<QueryCostAccumulator>* accs,
    ThreadPool* pool, PhaseAccumulator* phases = nullptr,
    const ApproxContext& approx = ApproxContext());

}  // namespace parsim

#endif  // PARSIM_SRC_PARALLEL_BATCH_KNN_H_
