// The parallel similarity-search engine: the system of Section 5.
//
// Default architecture (`kSharedTree`, the paper's "parallel version of
// the X-tree"): ONE X-tree indexes the whole data set; its data (leaf)
// pages are declustered over n simulated disks, while directory pages
// live with the query host. A k-NN query runs one global search; every
// data page it touches is charged to the owning disk, and the query
// completes when the slowest disk finishes:
//
//     elapsed = host directory cost + max over disks (data-page cost).
//
// This reproduces the paper's measurement rule ("we determined the disk
// which accesses most pages during query processing ... used the search
// time of this disk") exactly: the set of pages a query needs is fixed
// by the search algorithm, and the declusterer decides only how that set
// spreads over the disks.
//
// The alternative architecture (`kFederatedTrees`) builds one
// independent X-tree per disk over that disk's share of the data and
// merges per-disk k-NN results; it is kept as an ablation of the
// shared-tree design (see bench/ablation_architecture).
//
// Execution layer: all read-only queries are thread-safe. Each query
// captures its simulated charges in a private QueryCostAccumulator (see
// src/io/cost_capture.h) instead of mutating shared disk counters
// mid-traversal, so QueryBatch can fan a batch of queries out over a
// shared ThreadPool for real wall-clock parallelism while the simulated
// per-query stats stay bit-identical to a serial run.

#ifndef PARSIM_SRC_PARALLEL_ENGINE_H_
#define PARSIM_SRC_PARALLEL_ENGINE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/core/declusterer.h"
#include "src/core/replica.h"
#include "src/index/knn.h"
#include "src/index/tree_base.h"
#include "src/io/cost_capture.h"
#include "src/io/counters.h"
#include "src/io/disk_array.h"
#include "src/parallel/join.h"
#include "src/util/phase_timer.h"
#include "src/util/status.h"
#include "src/util/thread_pool.h"

namespace parsim {

/// Which index structure is used (per disk for kFederatedTrees, global
/// for kSharedTree).
enum class TreeKind {
  kXTree,
  kRStarTree,
};

/// Which k-NN algorithm the searches use.
enum class KnnAlgorithm {
  kHs,   // best-first [HS 95] (default)
  kRkv,  // branch-and-bound [RKV 95]
};

/// How the index is parallelized.
enum class Architecture {
  /// One global tree; data pages declustered over disks (the paper's
  /// parallel X-tree). Default.
  kSharedTree,
  /// One independent tree per disk over its share of the data; results
  /// merged. Ablation architecture.
  kFederatedTrees,
  /// No index: each disk stores its share as packed pages in arrival
  /// order and answers a query by scanning them all. This is the
  /// paper's plain round-robin *data distribution* baseline (Figure 2):
  /// a distribution scheme, not an indexing scheme.
  kFederatedScan,
};

/// Opt-in (1+eps)-approximate k-NN tier (see DESIGN.md "Approximate
/// tier & recall harness"). Applies to HS best-first k-NN searches only
/// — Query/TryQuery/QueryBatch under KnnAlgorithm::kHs, single-query
/// and coalesced alike, and composing with batching, buffering,
/// replicas, and fault injection; RKV, ball, and range queries stay
/// exact, as does everything at epsilon == 0 (asserted bit-identical in
/// tests/index_approx_knn_test.cc).
///
/// Contract: every returned distance D_k satisfies
/// D_k <= (1+eps) * d_k_true, and every true neighbor within
/// d_k_true/(1+eps) is returned. Recall@k is NOT directly bounded —
/// that is what the ground-truth harness (src/eval/recall.h,
/// bench/microbench_recall) measures; eps is the knob that trades
/// recall for QPS along the measured curve.
struct ApproxOptions {
  bool enabled = false;
  /// The (1+eps) slack. 0 keeps the search exact even when enabled.
  double epsilon = 0.0;
  /// Mechanism (a), bound relaxation: scale the SQ8 PruneCutoff guard
  /// so leaf candidates whose lower bound clears the exact threshold but
  /// not threshold/(1+eps) are dropped without a re-rank.
  /// Needs quantized_leaf_blocks (the exact sweep has no cutoff).
  bool relax_bounds = true;
  /// Mechanism (b), early termination: stop descending once a frontier
  /// node's MINDIST exceeds dist_k/(1+eps) — implemented as a per-node
  /// skip against the relaxed bound at push and pop time, which is
  /// equivalent (the frontier pops in ascending MINDIST order) and also
  /// saves the skipped nodes' page reads.
  bool early_termination = true;
};

/// Engine configuration.
struct EngineOptions {
  Architecture architecture = Architecture::kSharedTree;
  TreeKind tree_kind = TreeKind::kXTree;
  KnnAlgorithm knn_algorithm = KnnAlgorithm::kHs;
  /// Build trees by insertion (the paper's dynamic setting) or by
  /// Hilbert bulk loading (faster construction for large runs).
  bool bulk_load = false;
  /// Number of worker threads for real wall-clock parallelism on top of
  /// the simulated-time accounting: the per-disk searches of the
  /// federated architectures fan out over this many pool workers, and
  /// QueryBatch uses it as the default batch concurrency (any
  /// architecture). Results and simulated stats are bit-identical to the
  /// serial execution. 0 or 1 = serial.
  unsigned parallel_workers = 0;
  /// Main-memory page buffer per disk (and for the query host), in
  /// pages; 0 disables buffering. Buffered reads are free and persist
  /// across queries, so query costs become history-dependent — exactly
  /// like a real buffer pool. Backed by one sharded BufferPool (one
  /// mutex-guarded LRU shard per disk plus one for the host), so
  /// buffered batches still execute concurrently. The paper's
  /// workstations had 64 MB RAM (~16k pages) against several hundred MB
  /// of data.
  std::uint64_t buffer_pages_per_disk = 0;
  /// Replay buffered batches serially. An LRU buffer makes per-query
  /// costs depend on the access history, so a concurrent batch's
  /// *per-query* hit/miss split varies with thread interleaving (the
  /// aggregate — total buffer hits + misses — and all query results are
  /// exact under any schedule). Set this when per-query numbers must be
  /// reproducible, e.g. golden-stats runs; it only affects engines with
  /// buffer_pages_per_disk > 0.
  bool deterministic_batch = false;
  /// Batched execution path for QueryBatch (kSharedTree + kHs only;
  /// other configurations ignore the flag): the batch's best-first
  /// searches advance in lock-step rounds, queries whose frontiers
  /// request the same page read it ONCE (one member pays the simulated
  /// I/O, the rest record coalesced_reads), and a leaf page is scored
  /// against all requesting queries by one many-to-many SIMD kernel call
  /// over its SoA block. Results are bit-identical to per-query
  /// execution; per-query costs are deterministic at any thread count
  /// (the page-fetch schedule is serial and sorted), so buffered engines
  /// need no deterministic_batch serialization on this path.
  bool coalesced_batch = false;
  /// Assign every bucket a secondary disk (ReplicaPlacement over the
  /// coloring) and transparently fail reads of a failed disk over to it.
  /// Supported on kSharedTree (the paper's architecture, where data
  /// pages are virtual and declustering is a routing decision); the
  /// federated architectures physically partition the data, so a failed
  /// disk there is reported as unavailable instead.
  bool enable_replicas = false;
  /// Give every leaf block an SQ8 mirror (uint8 scalar quantization; see
  /// src/geometry/sq8.h) and sweep it first: candidates whose provable
  /// comparable-space lower bound cannot beat the current k-th best (or
  /// the ball radius / range window) are pruned, survivors re-ranked
  /// through the exact float kernels. Results and distances are
  /// bit-identical to the unquantized path; distance_computations drops
  /// to the re-ranked share, and the quantized_pruned / reranked /
  /// leaf_bytes_scanned counters audit the saving. Tree architectures
  /// only (kFederatedScan has no leaf blocks and ignores the flag).
  bool quantized_leaf_blocks = false;
  /// Attribute wall-clock time to query phases (descent, frontier ops,
  /// simulated-I/O accounting, leaf-sweep stages; see
  /// src/util/phase_timer.h) and report it in QueryStats::phases /
  /// ThroughputResult::phases. Off by default: the timer is cheap (two
  /// steady_clock reads per scope) but not free, so timed benchmark runs
  /// keep it off and take the breakdown from a separate profiled pass.
  bool profile_phases = false;
  /// Leaf fill fraction handed to BulkLoad (TreeOptions::bulk_load_fill).
  /// The R*-style 0.7 leaves headroom for later inserts; a read-only
  /// bulk-loaded index packs pages full at 1.0, which cuts both the page
  /// count and the per-row share of descent/frontier work. Only used
  /// when bulk_load is set.
  double bulk_load_fill = 0.7;
  /// The approximate search tier (off = exact, the default).
  ApproxOptions approx{};
  DiskParameters disk_parameters{};
  Metric metric{};
};

/// Per-query accounting: the work counters (summed over the query
/// host and every disk) plus the simulated times and page totals derived
/// from the per-disk charges.
struct QueryStats : Counters {
  /// Simulated elapsed time under the paper's rule: host directory work
  /// plus the slowest disk's data-page work.
  double parallel_ms = 0.0;
  /// Simulated elapsed time if one disk had served every access.
  double sum_ms = 0.0;
  /// Pages read by the busiest disk (the paper's raw metric).
  std::uint64_t max_pages = 0;
  /// Pages read across all disks: data pages, plus under kFederatedTrees
  /// each disk's directory pages, which directory_pages counts as well.
  /// On kSharedTree, per query, total_pages + directory_pages +
  /// buffer_hit_pages + coalesced_reads equals the pages the
  /// single-query path would have touched.
  std::uint64_t total_pages = 0;
  /// Directory pages read by the query host (kSharedTree) or summed
  /// over disks (kFederatedTrees).
  std::uint64_t directory_pages = 0;
  /// avg/max page load over disks; 1.0 = perfectly even.
  double balance = 1.0;
  /// Pages read per disk.
  std::vector<std::uint64_t> pages_per_disk;

  /// True when the query felt any fault: a replica read, a retry, an
  /// unavailable page, or slow-disk time scaling. False (with
  /// healthy_parallel_ms == parallel_ms bit for bit) on a healthy array.
  bool degraded = false;
  /// The makespan this query would have had at healthy rates: same page
  /// distribution, but no slow-disk scaling and no retry penalties.
  /// parallel_ms / healthy_parallel_ms is the degradation factor.
  double healthy_parallel_ms = 0.0;

  /// Wall-clock time by phase (all zero unless the engine was built with
  /// profile_phases). Real time, not simulated time — never compare it
  /// against parallel_ms.
  PhaseBreakdown phases;
};

/// A parallel k-NN search engine over declustered data.
class ParallelSearchEngine {
 public:
  /// Takes ownership of `declusterer`; the number of disks is
  /// declusterer->num_disks().
  ParallelSearchEngine(std::size_t dim,
                       std::unique_ptr<Declusterer> declusterer,
                       EngineOptions options = {});
  ~ParallelSearchEngine();

  ParallelSearchEngine(const ParallelSearchEngine&) = delete;
  ParallelSearchEngine& operator=(const ParallelSearchEngine&) = delete;

  /// Declusters `points` and builds the index(es). Point ids are
  /// positions in `points`. Call once. A point set with a NaN or
  /// infinite coordinate is rejected with kInvalidArgument before any
  /// point is stored.
  ///
  /// When options().parallel_workers > 1 and bulk_load is on, the build
  /// itself is parallel: every BulkLoad phase fans out over the shared
  /// pool (see TreeBase::BulkLoad — the tree, its leaf blocks with their
  /// SQ8 mirrors, and the simulated disk counters stay bit-identical to
  /// the serial build), and so does the fill of the leaf-route table.
  /// However the tree was built, the first query finds every leaf's
  /// block and route ready; neither costs a simulated page or distance.
  /// Insert and Remove rebuild the blocks and routes of just the leaves
  /// they change.
  Status Build(const PointSet& points);

  /// Inserts a single point dynamically (the engine is "completely
  /// dynamical", Section 4.3). A point with a NaN or infinite coordinate
  /// is rejected with kInvalidArgument and the index is left untouched.
  Status Insert(PointView p, PointId id);

  /// Deletes the exact record (p, id); kNotFound if absent. The
  /// declusterer must still route `p` to the disk that stored it (true
  /// unless the declusterer was re-fitted in between).
  Status Remove(PointView p, PointId id);

  /// Global k nearest neighbors of `query`. Fills `stats` (optional)
  /// with the simulated cost of this query. A query with a NaN or
  /// infinite coordinate fails a PARSIM_CHECK, as do such queries given
  /// to TryQuery, SimilarityQuery and QueryBatch: they have no defined
  /// nearest neighbours.
  ///
  /// Thread-safe against other Query/RangeQuery/SimilarityQuery calls:
  /// traversal records its charges in a per-query cost accumulator and
  /// only merges them into the shared disk counters under a lock at query
  /// end, so the simulated stats of each query are independent of
  /// interleaving (and bit-identical to a serial execution when no page
  /// buffer is configured). Not safe against concurrent Insert/Remove.
  KnnResult Query(PointView query, std::size_t k,
                  QueryStats* stats = nullptr) const;

  /// Fault-aware Query: identical traversal and accounting, but data
  /// unavailability (a failed disk whose pages have no healthy replica)
  /// is reported as StatusCode::kUnavailable instead of being silently
  /// answered from the simulator's in-memory structures. On success
  /// `*result` holds the k nearest neighbors; on kUnavailable it holds
  /// the answer the healthy system would have given (diagnostics only).
  Status TryQuery(PointView query, std::size_t k, KnnResult* result,
                  QueryStats* stats = nullptr) const;

  /// Answers every query in `queries` (k-NN, like Query) and returns the
  /// per-query results in order. With `threads` > 1 — or `threads` == 0
  /// and options().parallel_workers > 1 — the batch executes on the
  /// engine's shared worker pool for real wall-clock parallelism;
  /// results are bit-identical to the serial execution, and so are the
  /// per-query simulated stats on an unbuffered engine. A buffered
  /// engine runs the batch concurrently on the sharded BufferPool: query
  /// results and the aggregate buffer accounting (total hits + misses,
  /// per disk) stay exact under any interleaving, while the per-query
  /// hit/miss split may vary; set options().deterministic_batch to
  /// replay such batches serially when per-query numbers must be
  /// reproducible. `effective_threads` (optional) receives the worker
  /// count the batch actually executed on (1 = serial), e.g. 1 for a
  /// buffered engine in deterministic mode whatever `threads` says.
  /// `phases` (optional; requires options().profile_phases) receives the
  /// batch-level wall-clock phase breakdown summed over all workers.
  std::vector<KnnResult> QueryBatch(const PointSet& queries, std::size_t k,
                                    std::vector<QueryStats>* stats = nullptr,
                                    unsigned threads = 0,
                                    unsigned* effective_threads = nullptr,
                                    PhaseBreakdown* phases = nullptr) const;

  /// Does nothing. Leaf blocks and routes are built by Build and kept
  /// exact by every write, so there is nothing left to warm; the
  /// function stays only for callers written when blocks were built on
  /// first use.
  void WarmLeafBlocks(unsigned threads = 0) const;

  /// All point ids inside `query` (inclusive). The query type the
  /// baseline declusterers were designed for (Section 1: "range queries
  /// and partial match queries").
  std::vector<PointId> RangeQuery(const Rect& query,
                                  QueryStats* stats = nullptr) const;

  /// Partial match: ids of points whose coordinate in every fixed
  /// dimension lies within `tolerance` of the given value; unfixed
  /// dimensions are unconstrained (implemented as a degenerate range
  /// query, the classic reduction).
  std::vector<PointId> PartialMatchQuery(
      const std::vector<std::pair<std::size_t, Scalar>>& fixed,
      Scalar tolerance, QueryStats* stats = nullptr) const;

  /// ε-similarity query: every object within `radius` of `query`,
  /// ascending by distance ("all images at least this similar").
  KnnResult SimilarityQuery(PointView query, double radius,
                            QueryStats* stats = nullptr) const;

  /// All-pairs ε-similarity self-join: every unordered pair of stored
  /// points within `epsilon` of each other (inclusive, like
  /// SimilarityQuery), sorted by (a, b) with a < b. Candidate leaf-block
  /// pairs are pruned by MBR MINDIST, each distinct leaf page is fetched
  /// once (further pairs sharing it record coalesced reads), and the
  /// surviving pairs sweep through the SQ8 kernels as block rows fanned
  /// over the worker pool — see src/parallel/join.h. Results and
  /// every JoinStats counter are invariant across thread counts.
  /// kSharedTree only. Thread-safe like Query; not against
  /// Insert/Remove.
  JoinResult SelfJoin(double epsilon,
                      const JoinOptions& options = JoinOptions()) const;

  /// Applies a fault plan to the disk array (empty plan = all healthy).
  /// Seeded plans (FaultPlan::WithRandomFailures) make degraded runs
  /// exactly reproducible. Must not race with in-flight queries — inject
  /// faults between query waves, like Insert/Remove.
  void SetFaultPlan(const FaultPlan& plan);

  /// Restores every disk to healthy.
  void ClearFaults();

  const FaultPlan& fault_plan() const { return disks_.fault_plan(); }

  bool replicas_enabled() const { return replicas_ != nullptr; }

  /// The replica placement, or nullptr when replicas are disabled.
  const ReplicaPlacement* replica_placement() const {
    return replicas_.get();
  }

  std::size_t dim() const { return dim_; }
  std::size_t size() const { return size_; }
  std::uint32_t num_disks() const;
  const Declusterer& declusterer() const { return *declusterer_; }
  const EngineOptions& options() const { return options_; }
  DiskArray& disks() { return disks_; }
  const DiskArray& disks() const { return disks_; }

  /// Every tree's TreeBase::ValidateInvariants, plus (kSharedTree) the
  /// route table: each reachable leaf's entry must equal a fresh
  /// computation from the leaf's MBR. kInternal names the first
  /// violation.
  Status ValidateInvariants() const;

  /// The sharded page-buffer pool: shard i buffers disk i, the last
  /// shard buffers the query host. nullptr when buffering is off.
  const BufferPool* buffer_pool() const { return buffer_pool_.get(); }

  /// kSharedTree: the global tree (disk argument ignored);
  /// kFederatedTrees: the tree of that disk.
  const TreeBase& tree(DiskId disk = 0) const;

  /// Simulated cost of the last Build (page writes etc.). Diagnostics.
  DiskStats BuildStats() const { return build_stats_; }

 private:
  // The query service front-end (src/service/query_service.h) drives the
  // round scheduler directly and reuses the engine's accumulator-derived
  // accounting (StatsFromAccumulator / MergeAccumulator), pool, and
  // resolved approx context.
  friend class QueryService;

  std::unique_ptr<TreeBase> MakeTree(SimulatedDisk* disk) const;
  KnnResult RunKnn(const TreeBase& tree, PointView query,
                   std::size_t k) const;
  KnnResult ScanQuery(PointView query, std::size_t k) const;

  /// The geometric half of a shared-tree leaf's disk route. A data page
  /// is "the bucket" of the paper: it is assigned to a disk by the
  /// region it covers, so both fields are pure functions of the leaf's
  /// MBR center (id-based declusterers such as round robin use the node
  /// id as the item index).
  struct LeafRoute {
    DiskId primary = 0;
    /// The replica bucket (0 when replicas are off).
    BucketId bucket = 0;
    friend bool operator==(const LeafRoute&, const LeafRoute&) = default;
  };

  /// The one place a leaf's route is computed.
  LeafRoute ComputeLeafRoute(const Node& leaf) const;

  /// Shared-tree leaf routing with fault handling: healthy primary, or
  /// its replica (failover) when the primary failed, or the failed
  /// primary flagged unavailable when no healthy copy exists. Reads the
  /// leaf's entry of the route table; the fault checks stay live, so
  /// SetFaultPlan invalidates nothing.
  TreeBase::DiskRoute RouteLeaf(const Node& leaf) const;

  /// Sizes the route table to the shared tree's node table and
  /// recomputes the entry of every non-empty leaf in `ids`, over `pool`
  /// when given. Build passes every node id; Insert and Remove pass
  /// TreeBase::changed_leaves(), the only leaves whose MBR, and with it
  /// the route, may have moved. A write: must not race with queries.
  /// No-op outside kSharedTree.
  void UpdateLeafRoutes(const std::vector<NodeId>& ids, ThreadPool* pool);

  /// Federated fault handling (no replicas there): if disk `d` is
  /// failed, records `pages` unavailable on it and returns true (the
  /// caller skips the partition).
  bool SkipFailedDisk(DiskId d, std::uint64_t pages) const;

  /// Derives the per-query stats from a query's captured charges; the
  /// formulas mirror the old reset-charge-read protocol exactly, so the
  /// numbers are bit-identical to it.
  QueryStats StatsFromAccumulator(const QueryCostAccumulator& acc) const;
  /// Folds a finished query's charges into the cumulative disk counters
  /// (under stats_mutex_).
  void MergeAccumulator(const QueryCostAccumulator& acc) const;
  /// The shared worker pool, created lazily with at least `threads`
  /// workers.
  std::shared_ptr<ThreadPool> EnsurePool(unsigned threads) const;

  std::size_t dim_;
  std::unique_ptr<Declusterer> declusterer_;
  EngineOptions options_;
  /// options_.approx resolved to comparable-scale factors once at
  /// construction: Metric::ToComparable(1 + epsilon) per enabled
  /// mechanism, 1.0 (exact) otherwise. See ApproxContext.
  ApproxContext approx_;
  std::unique_ptr<ReplicaPlacement> replicas_;
  /// kSharedTree: the route of every non-empty leaf, indexed by node id
  /// (dissolved leaves keep a stale entry no query reads). Computing a
  /// route folds the page's entries into its MBR, which per node access
  /// showed up as ~40% of end-to-end batch time; the table holds it
  /// from Build on, and UpdateLeafRoutes keeps it exact across writes.
  std::vector<LeafRoute> leaf_routes_;
  // buffer_pool_ must outlive disks_ and host_ (attached shards), which
  // must outlive the trees (raw pointers inside).
  std::unique_ptr<BufferPool> buffer_pool_;
  mutable DiskArray disks_;
  mutable SimulatedDisk host_;
  mutable std::mutex stats_mutex_;       // guards cumulative stats merges
  mutable std::mutex pool_mutex_;        // guards pool_ creation/growth
  mutable std::shared_ptr<ThreadPool> pool_;
  std::vector<std::unique_ptr<TreeBase>> trees_;  // 1 (shared) or n (federated)
  // kFederatedScan: raw per-disk storage (points + their ids).
  std::vector<PointSet> scan_partitions_;
  std::vector<std::vector<PointId>> scan_ids_;
  std::size_t size_ = 0;
  DiskStats build_stats_;
};

}  // namespace parsim

#endif  // PARSIM_SRC_PARALLEL_ENGINE_H_
