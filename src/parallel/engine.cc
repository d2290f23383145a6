#include "src/parallel/engine.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "src/core/near_optimal.h"
#include "src/index/rstar_tree.h"
#include "src/index/xtree.h"
#include "src/parallel/round_scheduler.h"
#include "src/util/check.h"

namespace parsim {

namespace {

/// Timed-out read attempts charged (at disk_parameters.failover_timeout_ms
/// each) against a failed primary before a read fails over to its replica.
constexpr std::uint32_t kMaxReadRetries = 1;

}  // namespace

ParallelSearchEngine::ParallelSearchEngine(
    std::size_t dim, std::unique_ptr<Declusterer> declusterer,
    EngineOptions options)
    : dim_(dim),
      declusterer_(std::move(declusterer)),
      options_(options),
      disks_(declusterer_ ? declusterer_->num_disks() : 1,
             options.disk_parameters),
      host_(static_cast<DiskId>(declusterer_ ? declusterer_->num_disks() : 1),
            options.disk_parameters) {
  PARSIM_CHECK(dim >= 1);
  PARSIM_CHECK(declusterer_ != nullptr);
  if (options_.buffer_pages_per_disk > 0) {
    // One sharded pool for the whole engine: shard i buffers disk i, the
    // last shard buffers the query host's directory pages. Shard locks
    // are per disk, so concurrent queries only contend when they touch
    // the same simulated disk at the same instant.
    buffer_pool_ = std::make_unique<BufferPool>(
        disks_.size() + 1, options_.buffer_pages_per_disk);
    disks_.AttachBufferPool(buffer_pool_.get());
    host_.AttachBufferPool(buffer_pool_.get(), disks_.size());
  }
  if (options_.enable_replicas &&
      options_.architecture == Architecture::kSharedTree) {
    // Replicas follow the same bucket geometry the primaries use, so a
    // near-optimal (or recursive) declusterer's split values carry over;
    // other declusterers fall back to midpoint buckets, and ReplicaFor
    // nudges off the actual primary either way.
    const auto* near_optimal =
        dynamic_cast<const NearOptimalDeclusterer*>(declusterer_.get());
    replicas_ = std::make_unique<ReplicaPlacement>(
        near_optimal != nullptr ? near_optimal->bucketizer()
                                : Bucketizer(dim_),
        static_cast<std::uint32_t>(disks_.size()));
  }
  switch (options_.architecture) {
    case Architecture::kSharedTree:
      // One global tree. Structural (build-time) charges go to the host;
      // query-time charges are routed per node by the resolver below.
      trees_.push_back(MakeTree(&host_));
      trees_[0]->set_node_disk_resolver([this](const Node& node) {
        if (!node.IsLeaf()) return TreeBase::DiskRoute{&host_};
        return RouteLeaf(node);
      });
      break;
    case Architecture::kFederatedTrees:
      trees_.reserve(disks_.size());
      for (std::size_t i = 0; i < disks_.size(); ++i) {
        trees_.push_back(MakeTree(&disks_.disk(static_cast<DiskId>(i))));
      }
      break;
    case Architecture::kFederatedScan:
      scan_partitions_.reserve(disks_.size());
      scan_ids_.resize(disks_.size());
      for (std::size_t i = 0; i < disks_.size(); ++i) {
        scan_partitions_.emplace_back(dim_);
      }
      break;
  }
  if (options_.quantized_leaf_blocks) {
    // Tree architectures only: kFederatedScan sweeps packed pages, not
    // leaf blocks, so the loop is empty there and the flag is a no-op.
    for (auto& t : trees_) t->set_quantized_leaf_blocks(true);
  }
  if (options_.approx.enabled && options_.approx.epsilon > 0.0) {
    PARSIM_CHECK(options_.approx.epsilon < 1e9);  // catch garbage knobs
    // One comparable-scale factor serves both mechanisms: ToComparable
    // is multiplicative for every supported kind ((1+eps)^2 on L2's
    // squared scale, (1+eps) on L1/Lmax), so dividing a comparable
    // bound by it divides the real-distance bound by exactly (1+eps).
    const double factor =
        options_.metric.ToComparable(1.0 + options_.approx.epsilon);
    if (options_.approx.early_termination) approx_.node_factor = factor;
    if (options_.approx.relax_bounds) approx_.sweep_factor = factor;
  }
}

ParallelSearchEngine::~ParallelSearchEngine() = default;

std::unique_ptr<TreeBase> ParallelSearchEngine::MakeTree(
    SimulatedDisk* disk) const {
  if (options_.tree_kind == TreeKind::kRStarTree) {
    TreeOptions tree_options;
    tree_options.bulk_load_fill = options_.bulk_load_fill;
    return std::make_unique<RStarTree>(dim_, disk, tree_options);
  }
  XTreeOptions xtree_options;
  xtree_options.bulk_load_fill = options_.bulk_load_fill;
  return std::make_unique<XTree>(dim_, disk, xtree_options);
}

std::uint32_t ParallelSearchEngine::num_disks() const {
  return static_cast<std::uint32_t>(disks_.size());
}

const TreeBase& ParallelSearchEngine::tree(DiskId disk) const {
  PARSIM_CHECK(options_.architecture != Architecture::kFederatedScan);
  if (options_.architecture == Architecture::kSharedTree) {
    return *trees_[0];
  }
  PARSIM_CHECK(disk < trees_.size());
  return *trees_[disk];
}

ParallelSearchEngine::LeafRoute ParallelSearchEngine::ComputeLeafRoute(
    const Node& leaf) const {
  PARSIM_DCHECK(leaf.IsLeaf() && !leaf.entries.empty());
  const Point center = leaf.ComputeMbr(dim_).Center();
  LeafRoute route;
  route.primary = declusterer_->DiskOfPoint(center, leaf.id);
  if (replicas_ != nullptr) {
    route.bucket = replicas_->bucketizer().BucketOf(center);
  }
  return route;
}

void ParallelSearchEngine::UpdateLeafRoutes(const std::vector<NodeId>& ids,
                                            ThreadPool* pool) {
  if (options_.architecture != Architecture::kSharedTree) return;
  const TreeBase& tree = *trees_[0];
  leaf_routes_.resize(tree.num_nodes());
  const auto update = [&](std::size_t i) {
    const Node& node = tree.PeekNode(ids[i]);
    if (!node.IsLeaf() || node.entries.empty()) return;
    leaf_routes_[node.id] = ComputeLeafRoute(node);
  };
  if (pool != nullptr && ids.size() > 1) {
    pool->ParallelFor(0, ids.size(), update);
  } else {
    for (std::size_t i = 0; i < ids.size(); ++i) update(i);
  }
}

TreeBase::DiskRoute ParallelSearchEngine::RouteLeaf(const Node& leaf) const {
  PARSIM_DCHECK(leaf.IsLeaf());
  PARSIM_CHECK(leaf.id < leaf_routes_.size());
  const LeafRoute& geometry = leaf_routes_[leaf.id];
  SimulatedDisk& primary = disks_.disk(geometry.primary);
  if (!primary.is_failed()) return TreeBase::DiskRoute{&primary};
  if (replicas_ != nullptr) {
    SimulatedDisk& replica =
        disks_.disk(replicas_->ReplicaFor(geometry.bucket, geometry.primary));
    if (!replica.is_failed()) {
      TreeBase::DiskRoute route{&replica};
      route.failover = true;
      route.retry_attempts = kMaxReadRetries;
      return route;
    }
  }
  TreeBase::DiskRoute route{&primary};
  route.unavailable = true;
  return route;
}

bool ParallelSearchEngine::SkipFailedDisk(DiskId d,
                                          std::uint64_t pages) const {
  SimulatedDisk& disk = disks_.disk(d);
  if (!disk.is_failed()) return false;
  disk.RecordUnavailable(pages);
  return true;
}

void ParallelSearchEngine::SetFaultPlan(const FaultPlan& plan) {
  disks_.ApplyFaultPlan(plan);
}

void ParallelSearchEngine::ClearFaults() { disks_.ClearFaults(); }

Status ParallelSearchEngine::Build(const PointSet& points) {
  if (points.dim() != dim_) {
    return Status::InvalidArgument("point set dimension mismatch");
  }
  if (size_ != 0) {
    return Status::FailedPrecondition("Build may only be called once");
  }
  if (!AllFinite({points.data(), points.size() * dim_})) {
    return Status::InvalidArgument(
        "point set has a NaN or infinite coordinate");
  }
  // Parallel builds reuse the shared query pool; BulkLoad is
  // bit-identical to its serial self at any thread count, so opting in
  // costs nothing but wall clock.
  std::shared_ptr<ThreadPool> build_pool;
  if (options_.bulk_load && options_.parallel_workers > 1) {
    build_pool = EnsurePool(options_.parallel_workers);
  }
  if (options_.architecture == Architecture::kFederatedScan) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      Status s = Insert(points[i], static_cast<PointId>(i));
      if (!s.ok()) return s;
    }
  } else if (options_.architecture == Architecture::kSharedTree) {
    if (options_.bulk_load) {
      Status s = trees_[0]->BulkLoad(points, nullptr, build_pool.get());
      if (!s.ok()) return s;
    } else {
      for (std::size_t i = 0; i < points.size(); ++i) {
        Status s = trees_[0]->Insert(points[i], static_cast<PointId>(i));
        if (!s.ok()) return s;
      }
    }
    size_ = points.size();
  } else if (options_.bulk_load) {
    // Partition into per-disk point sets, then Hilbert-bulk-load each
    // with the original ids.
    std::vector<PointSet> partitions;
    partitions.reserve(disks_.size());
    std::vector<std::vector<PointId>> ids(disks_.size());
    for (std::size_t d = 0; d < disks_.size(); ++d) {
      partitions.emplace_back(dim_);
    }
    for (std::size_t i = 0; i < points.size(); ++i) {
      const DiskId disk =
          declusterer_->DiskOfPoint(points[i], static_cast<PointId>(i));
      PARSIM_CHECK(disk < disks_.size());
      partitions[disk].Add(points[i]);
      ids[disk].push_back(static_cast<PointId>(i));
    }
    for (std::size_t d = 0; d < disks_.size(); ++d) {
      if (partitions[d].empty()) continue;
      Status s = trees_[d]->BulkLoad(partitions[d], &ids[d], build_pool.get());
      if (!s.ok()) return s;
    }
    size_ = points.size();
  } else {
    for (std::size_t i = 0; i < points.size(); ++i) {
      Status s = Insert(points[i], static_cast<PointId>(i));
      if (!s.ok()) return s;
    }
  }
  build_stats_ = disks_.TotalStats();
  build_stats_ += host_.stats();
  disks_.ResetStats();
  host_.ResetStats();
  if (options_.architecture == Architecture::kSharedTree) {
    // Routes charge nothing, so build_stats_ above is unaffected.
    std::vector<NodeId> every_node(trees_[0]->num_nodes());
    std::iota(every_node.begin(), every_node.end(), NodeId{0});
    UpdateLeafRoutes(every_node, build_pool.get());
  }
  return Status::Ok();
}

Status ParallelSearchEngine::Insert(PointView p, PointId id) {
  if (p.size() != dim_) {
    return Status::InvalidArgument("point dimension mismatch");
  }
  if (!AllFinite(p)) {
    return Status::InvalidArgument("point has a NaN or infinite coordinate");
  }
  if (options_.architecture == Architecture::kSharedTree) {
    Status s = trees_[0]->Insert(p, id);
    if (!s.ok()) return s;
    UpdateLeafRoutes(trees_[0]->changed_leaves(), nullptr);
  } else if (options_.architecture == Architecture::kFederatedScan) {
    const DiskId disk = declusterer_->DiskOfPoint(p, id);
    PARSIM_CHECK(disk < scan_partitions_.size());
    scan_partitions_[disk].Add(p);
    scan_ids_[disk].push_back(id);
  } else {
    const DiskId disk = declusterer_->DiskOfPoint(p, id);
    PARSIM_CHECK(disk < trees_.size());
    Status s = trees_[disk]->Insert(p, id);
    if (!s.ok()) return s;
  }
  ++size_;
  return Status::Ok();
}

Status ParallelSearchEngine::Remove(PointView p, PointId id) {
  if (p.size() != dim_) {
    return Status::InvalidArgument("point dimension mismatch");
  }
  Status s = Status::Ok();
  if (options_.architecture == Architecture::kSharedTree) {
    s = trees_[0]->Delete(p, id);
    if (s.ok()) UpdateLeafRoutes(trees_[0]->changed_leaves(), nullptr);
  } else if (options_.architecture == Architecture::kFederatedScan) {
    const DiskId disk = declusterer_->DiskOfPoint(p, id);
    PARSIM_CHECK(disk < scan_partitions_.size());
    PointSet& part = scan_partitions_[disk];
    std::vector<PointId>& ids = scan_ids_[disk];
    s = Status::NotFound("record not stored");
    for (std::size_t i = 0; i < part.size(); ++i) {
      if (ids[i] != id) continue;
      bool equal = true;
      const PointView stored = part[i];
      for (std::size_t j = 0; j < dim_; ++j) {
        if (stored[j] != p[j]) {
          equal = false;
          break;
        }
      }
      if (!equal) continue;
      // Swap-with-last removal; PointSet has no erase, so rebuild the
      // tail in place.
      const std::size_t last = part.size() - 1;
      if (i != last) {
        const PointView moved = part[last];
        std::vector<Scalar> buffer(moved.begin(), moved.end());
        std::copy(buffer.begin(), buffer.end(), part.Mutable(i).begin());
        ids[i] = ids[last];
      }
      part.PopBack();
      ids.pop_back();
      s = Status::Ok();
      break;
    }
  } else {
    const DiskId disk = declusterer_->DiskOfPoint(p, id);
    PARSIM_CHECK(disk < trees_.size());
    s = trees_[disk]->Delete(p, id);
  }
  if (s.ok()) --size_;
  return s;
}

KnnResult ParallelSearchEngine::ScanQuery(PointView query,
                                          std::size_t k) const {
  KnnResult merged;
  const std::size_t per_page = LeafCapacityPerPage(dim_);
  for (std::size_t d = 0; d < scan_partitions_.size(); ++d) {
    const PointSet& part = scan_partitions_[d];
    if (part.empty()) continue;
    const std::uint64_t pages = (part.size() + per_page - 1) / per_page;
    if (SkipFailedDisk(static_cast<DiskId>(d), pages)) continue;
    SimulatedDisk& disk = disks_.disk(static_cast<DiskId>(d));
    disk.ReadDataPages(pages);
    disk.ChargeDistanceComputations(part.size());
    KnnResult local = BruteForceKnn(part, query, k, options_.metric);
    for (Neighbor& n : local) n.id = scan_ids_[d][n.id];
    merged.insert(merged.end(), local.begin(), local.end());
  }
  std::sort(merged.begin(), merged.end());
  if (merged.size() > k) merged.resize(k);
  return merged;
}

KnnResult ParallelSearchEngine::RunKnn(const TreeBase& tree, PointView query,
                                       std::size_t k) const {
  if (options_.knn_algorithm == KnnAlgorithm::kRkv) {
    // RKV stays exact: the approximate tier is specified (and tested)
    // for the HS best-first search only.
    return RkvKnn(tree, query, k, options_.metric);
  }
  return HsKnn(tree, query, k, options_.metric, approx_);
}

QueryStats ParallelSearchEngine::StatsFromAccumulator(
    const QueryCostAccumulator& acc) const {
  const std::size_t n = disks_.size();
  const DiskParameters& params = options_.disk_parameters;
  const DiskStats& host = acc.slot(n);
  const double host_ms = ElapsedMs(host, params);

  QueryStats stats;
  // One sum over every slot, the host's included: the host never records
  // replica, retry or unavailable pages, so those stay the disks' alone.
  for (std::size_t slot = 0; slot < acc.num_slots(); ++slot) {
    stats += acc.slot(slot);
  }
  stats.directory_pages = host.directory_pages_read;
  stats.pages_per_disk.reserve(n);
  double max_ms = 0.0;
  double sum_ms = 0.0;
  double max_healthy_ms = 0.0;
  for (std::size_t d = 0; d < n; ++d) {
    const DiskStats& s = acc.slot(d);
    // Actual service time scales with the disk's health (slow disks take
    // slow_factor times longer); the healthy figure ignores faults and
    // retry penalties, so healthy == actual bit-for-bit on a clean array.
    const double healthy_ms = HealthyElapsedMs(s, params);
    const double ms =
        ElapsedMs(s, params) * disks_.disk(static_cast<DiskId>(d)).time_scale();
    max_ms = std::max(max_ms, ms);
    sum_ms += ms;
    max_healthy_ms = std::max(max_healthy_ms, healthy_ms);
    const std::uint64_t pages = s.TotalPagesRead();
    stats.max_pages = std::max(stats.max_pages, pages);
    stats.total_pages += pages;
    stats.directory_pages += s.directory_pages_read;
    stats.pages_per_disk.push_back(pages);
  }
  stats.parallel_ms = host_ms + max_ms;
  stats.healthy_parallel_ms = HealthyElapsedMs(host, params) + max_healthy_ms;
  stats.sum_ms = host_ms + sum_ms;
  stats.degraded = stats.replica_pages > 0 || stats.failed_read_attempts > 0 ||
                   stats.unavailable_pages > 0 ||
                   stats.parallel_ms != stats.healthy_parallel_ms;
  stats.balance =
      stats.max_pages == 0
          ? 1.0
          : (static_cast<double>(stats.total_pages) / static_cast<double>(n)) /
                static_cast<double>(stats.max_pages);
  return stats;
}

void ParallelSearchEngine::MergeAccumulator(
    const QueryCostAccumulator& acc) const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  for (std::size_t d = 0; d < disks_.size(); ++d) {
    disks_.disk(static_cast<DiskId>(d)).MergeStats(acc.slot(d));
  }
  host_.MergeStats(acc.slot(disks_.size()));
}

std::shared_ptr<ThreadPool> ParallelSearchEngine::EnsurePool(
    unsigned threads) const {
  std::lock_guard<std::mutex> lock(pool_mutex_);
  if (pool_ == nullptr || pool_->size() < threads) {
    // Grow by replacement; previous users hold their own shared_ptr, so
    // an in-flight batch on the old pool finishes undisturbed.
    pool_ = std::make_shared<ThreadPool>(
        std::max(threads, pool_ != nullptr ? pool_->size() : 0u));
  }
  return pool_;
}

std::vector<PointId> ParallelSearchEngine::RangeQuery(
    const Rect& query, QueryStats* stats) const {
  PARSIM_CHECK(query.dim() == dim_);
  QueryCostAccumulator acc(disks_.size() + 1);
  std::vector<PointId> out;
  {
    ScopedCostCapture capture(&acc);
    if (options_.architecture == Architecture::kSharedTree) {
      out = trees_[0]->RangeQuery(query);
    } else if (options_.architecture == Architecture::kFederatedScan) {
      const std::size_t per_page = LeafCapacityPerPage(dim_);
      for (std::size_t d = 0; d < scan_partitions_.size(); ++d) {
        const PointSet& part = scan_partitions_[d];
        if (part.empty()) continue;
        const std::uint64_t pages = (part.size() + per_page - 1) / per_page;
        if (SkipFailedDisk(static_cast<DiskId>(d), pages)) continue;
        SimulatedDisk& disk = disks_.disk(static_cast<DiskId>(d));
        disk.ReadDataPages(pages);
        for (std::size_t i = 0; i < part.size(); ++i) {
          if (query.Contains(part[i])) out.push_back(scan_ids_[d][i]);
        }
      }
    } else {
      for (std::size_t d = 0; d < trees_.size(); ++d) {
        if (trees_[d]->empty()) continue;
        // A failed partition loses its whole data set, so the charge is
        // the tree's actual data-page count — the same number the scan
        // architecture books for its partition (parity is pinned by
        // tests/parallel_degraded_query_test.cc).
        if (SkipFailedDisk(static_cast<DiskId>(d), trees_[d]->DataPages())) {
          continue;
        }
        const std::vector<PointId> local = trees_[d]->RangeQuery(query);
        out.insert(out.end(), local.begin(), local.end());
      }
    }
  }
  std::sort(out.begin(), out.end());
  if (stats != nullptr) *stats = StatsFromAccumulator(acc);
  MergeAccumulator(acc);
  return out;
}

std::vector<PointId> ParallelSearchEngine::PartialMatchQuery(
    const std::vector<std::pair<std::size_t, Scalar>>& fixed,
    Scalar tolerance, QueryStats* stats) const {
  PARSIM_CHECK(tolerance >= 0);
  // Unfixed dimensions span a generous cover of the data space; the
  // engine does not constrain coordinates to [0,1], so use wide bounds.
  std::vector<Scalar> lo(dim_, std::numeric_limits<Scalar>::lowest());
  std::vector<Scalar> hi(dim_, std::numeric_limits<Scalar>::max());
  for (const auto& [dim_index, value] : fixed) {
    PARSIM_CHECK(dim_index < dim_);
    // value +- tolerance overflows Scalar at its extremes (lowest() -
    // anything is already -inf), and infinite Rect edges feed NaN (inf -
    // inf) into the branch-free SquaredMinDist. Widen to double — which
    // holds any Scalar sum exactly enough — and clamp back to the finite
    // Scalar range; stored points are finite, so the clamped window
    // matches the ideal one on every candidate.
    const double v = static_cast<double>(value);
    const double t = static_cast<double>(tolerance);
    lo[dim_index] = static_cast<Scalar>(std::max(
        v - t, static_cast<double>(std::numeric_limits<Scalar>::lowest())));
    hi[dim_index] = static_cast<Scalar>(std::min(
        v + t, static_cast<double>(std::numeric_limits<Scalar>::max())));
  }
  return RangeQuery(Rect(std::move(lo), std::move(hi)), stats);
}

KnnResult ParallelSearchEngine::SimilarityQuery(PointView query,
                                                double radius,
                                                QueryStats* stats) const {
  PARSIM_CHECK(query.size() == dim_);
  PARSIM_CHECK(AllFinite(query));
  PARSIM_CHECK(radius >= 0.0);
  QueryCostAccumulator acc(disks_.size() + 1);
  KnnResult merged;
  {
    ScopedCostCapture capture(&acc);
    if (options_.architecture == Architecture::kSharedTree) {
      merged = BallQuery(*trees_[0], query, radius, options_.metric);
    } else if (options_.architecture == Architecture::kFederatedScan) {
      const std::size_t per_page = LeafCapacityPerPage(dim_);
      for (std::size_t d = 0; d < scan_partitions_.size(); ++d) {
        const PointSet& part = scan_partitions_[d];
        if (part.empty()) continue;
        const std::uint64_t pages = (part.size() + per_page - 1) / per_page;
        if (SkipFailedDisk(static_cast<DiskId>(d), pages)) continue;
        SimulatedDisk& disk = disks_.disk(static_cast<DiskId>(d));
        disk.ReadDataPages(pages);
        disk.ChargeDistanceComputations(part.size());
        KnnResult local =
            BruteForceBallQuery(part, query, radius, options_.metric);
        for (Neighbor& n : local) n.id = scan_ids_[d][n.id];
        merged.insert(merged.end(), local.begin(), local.end());
      }
    } else {
      for (std::size_t d = 0; d < trees_.size(); ++d) {
        if (trees_[d]->empty()) continue;
        // Unavailability is charged at the partition's full data size,
        // matching the scan architecture (see RangeQuery above).
        if (SkipFailedDisk(static_cast<DiskId>(d), trees_[d]->DataPages())) {
          continue;
        }
        const KnnResult local =
            BallQuery(*trees_[d], query, radius, options_.metric);
        merged.insert(merged.end(), local.begin(), local.end());
      }
    }
  }
  std::sort(merged.begin(), merged.end());
  if (stats != nullptr) *stats = StatsFromAccumulator(acc);
  MergeAccumulator(acc);
  return merged;
}

KnnResult ParallelSearchEngine::Query(PointView query, std::size_t k,
                                      QueryStats* stats) const {
  PARSIM_CHECK(query.size() == dim_);
  PARSIM_CHECK(AllFinite(query));
  PARSIM_CHECK(k >= 1);
  QueryCostAccumulator acc(disks_.size() + 1);
  PhaseAccumulator phase_acc;
  PhaseAccumulator* phase_sink =
      options_.profile_phases ? &phase_acc : nullptr;
  KnnResult merged;
  {
    ScopedCostCapture capture(&acc);
    ScopedPhaseCapture phase_capture(phase_sink);
    if (options_.architecture == Architecture::kSharedTree) {
      merged = RunKnn(*trees_[0], query, k);
    } else if (options_.architecture == Architecture::kFederatedScan) {
      merged = ScanQuery(query, k);
    } else {
      // Fan out: every disk answers the query over its local tree; merge
      // the per-disk top-k lists. With parallel_workers > 1, the local
      // searches run on the shared pool — each worker installs this
      // query's accumulator and only writes the slot of its own disk, so
      // the accounting stays exact.
      std::vector<KnnResult> local(trees_.size());
      const unsigned workers =
          std::min<unsigned>(options_.parallel_workers,
                             static_cast<unsigned>(trees_.size()));
      if (workers > 1) {
        EnsurePool(workers)->ParallelFor(
            0, trees_.size(), [&](std::size_t i) {
              ScopedCostCapture worker_capture(&acc);
              ScopedPhaseCapture worker_phases(phase_sink);
              if (trees_[i]->empty()) return;
              if (SkipFailedDisk(static_cast<DiskId>(i),
                                 trees_[i]->DataPages())) {
                return;
              }
              local[i] = RunKnn(*trees_[i], query, k);
            });
      } else {
        for (std::size_t i = 0; i < trees_.size(); ++i) {
          if (trees_[i]->empty()) continue;
          if (SkipFailedDisk(static_cast<DiskId>(i),
                             trees_[i]->DataPages())) {
            continue;
          }
          local[i] = RunKnn(*trees_[i], query, k);
        }
      }
      for (const KnnResult& r : local) {
        merged.insert(merged.end(), r.begin(), r.end());
      }
      std::sort(merged.begin(), merged.end());
      if (merged.size() > k) merged.resize(k);
    }
  }
  if (stats != nullptr) {
    *stats = StatsFromAccumulator(acc);
    if (phase_sink != nullptr) {
      stats->phases = PhaseBreakdown::From(phase_acc);
    }
  }
  MergeAccumulator(acc);
  return merged;
}

Status ParallelSearchEngine::TryQuery(PointView query, std::size_t k,
                                      KnnResult* result,
                                      QueryStats* stats) const {
  PARSIM_CHECK(result != nullptr);
  QueryStats local;
  *result = Query(query, k, &local);
  if (stats != nullptr) *stats = local;
  if (local.unavailable_pages > 0) {
    return Status::Unavailable(
        "query touched a failed disk with no healthy replica");
  }
  return Status::Ok();
}

void ParallelSearchEngine::WarmLeafBlocks(unsigned /*threads*/) const {}

Status ParallelSearchEngine::ValidateInvariants() const {
  for (const auto& t : trees_) {
    Status s = t->ValidateInvariants();
    if (!s.ok()) return s;
  }
  if (options_.architecture != Architecture::kSharedTree ||
      trees_[0]->root_id() == kInvalidNodeId) {
    return Status::Ok();
  }
  const TreeBase& tree = *trees_[0];
  std::vector<NodeId> stack = {tree.root_id()};
  while (!stack.empty()) {
    const Node& node = tree.PeekNode(stack.back());
    stack.pop_back();
    if (!node.IsLeaf()) {
      for (const NodeEntry& e : node.entries) stack.push_back(e.child);
      continue;
    }
    if (node.id >= leaf_routes_.size() ||
        !(leaf_routes_[node.id] == ComputeLeafRoute(node))) {
      return Status::Internal("leaf route disagrees with its MBR");
    }
  }
  return Status::Ok();
}

std::vector<KnnResult> ParallelSearchEngine::QueryBatch(
    const PointSet& queries, std::size_t k, std::vector<QueryStats>* stats,
    unsigned threads, unsigned* effective_threads,
    PhaseBreakdown* phases) const {
  PARSIM_CHECK(queries.empty() || queries.dim() == dim_);
  PARSIM_CHECK(AllFinite({queries.data(), queries.size() * dim_}));
  std::vector<KnnResult> results(queries.size());
  if (stats != nullptr) stats->assign(queries.size(), QueryStats{});
  if (effective_threads != nullptr) *effective_threads = 1;
  if (phases != nullptr) *phases = PhaseBreakdown{};
  if (queries.empty()) return results;

  unsigned effective = threads != 0 ? threads : options_.parallel_workers;
  effective = std::max(1u, std::min<unsigned>(
                               effective,
                               static_cast<unsigned>(queries.size())));
  // The coalesced path exists only where one shared tree serves every
  // query with the pausable HS search; other configurations fall back to
  // the per-query fan-out below.
  const bool coalesce = options_.coalesced_batch &&
                        options_.architecture == Architecture::kSharedTree &&
                        options_.knn_algorithm == KnnAlgorithm::kHs;
  // Deterministic replay: an LRU buffer makes per-query costs depend on
  // the access history, so this mode serializes buffered batches to keep
  // their per-query numbers reproducible. The default executes them on
  // the sharded BufferPool — results and aggregate buffer accounting are
  // exact under any interleaving (see the header contract). The coalesced
  // scheduler is exempt: its page-fetch order is serial and sorted, so
  // its per-query numbers are reproducible at any thread count.
  if (options_.buffer_pages_per_disk > 0 && options_.deterministic_batch &&
      !coalesce) {
    effective = 1;
  }
  if (effective_threads != nullptr) *effective_threads = effective;

  if (coalesce) {
    std::vector<QueryCostAccumulator> accs;
    accs.reserve(queries.size());
    for (std::size_t i = 0; i < queries.size(); ++i) {
      accs.emplace_back(disks_.size() + 1);
    }
    std::shared_ptr<ThreadPool> pool;
    if (effective > 1) pool = EnsurePool(effective);
    // Coalesced rounds interleave every query, so the phase breakdown is
    // batch-level only; per-query stats[i].phases stays zero here.
    PhaseAccumulator phase_acc;
    // A closed schedule: every query is admitted up front, in query
    // order, so the rounds' (node, slot) fetch order is (node, query).
    HsRoundScheduler scheduler(*trees_[0], options_.metric, approx_,
                               options_.profile_phases ? &phase_acc : nullptr);
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::size_t slot = scheduler.Add(queries[i], k, &accs[i]);
      PARSIM_CHECK(slot == i);
    }
    while (scheduler.Step(pool.get()) > 0) {
    }
    for (std::size_t i = 0; i < queries.size(); ++i) {
      results[i] = scheduler.Take(i);
      if (stats != nullptr) (*stats)[i] = StatsFromAccumulator(accs[i]);
      MergeAccumulator(accs[i]);
    }
    if (phases != nullptr && options_.profile_phases) {
      *phases = PhaseBreakdown::From(phase_acc);
    }
    return results;
  }

  // The per-query path takes the batch breakdown as the sum of the
  // per-query ones; that needs per-query stats even when the caller did
  // not ask for them.
  std::vector<QueryStats> local_stats;
  std::vector<QueryStats>* stats_out = stats;
  if (stats_out == nullptr && phases != nullptr) {
    local_stats.assign(queries.size(), QueryStats{});
    stats_out = &local_stats;
  }
  const auto run_one = [&](std::size_t i) {
    results[i] =
        Query(queries[i], k, stats_out != nullptr ? &(*stats_out)[i] : nullptr);
  };
  if (effective <= 1) {
    for (std::size_t i = 0; i < queries.size(); ++i) run_one(i);
  } else {
    EnsurePool(effective)->ParallelFor(0, queries.size(), run_one);
  }
  if (phases != nullptr && stats_out != nullptr) {
    for (const QueryStats& s : *stats_out) *phases += s.phases;
  }
  return results;
}

}  // namespace parsim
