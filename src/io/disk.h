// One simulated disk: a page-access meter.
//
// Indexes charge every node they touch to their disk. Charges land in one
// of two places:
//
//   * normally, the disk's own cumulative counters (`stats()`), the
//     single-threaded protocol experiment code uses directly;
//   * while a ScopedCostCapture is active on the calling thread, the
//     per-query accumulator slot of this disk — shared state is then not
//     mutated mid-traversal, which is what makes concurrent queries safe
//     (see src/io/cost_capture.h).
//
// The only shared state a captured read still touches is the optional
// main-memory page buffer (an LRU is history-dependent by design); that
// access goes through a BufferPool shard, serialized by the shard's own
// mutex (src/io/buffer_pool.h).

#ifndef PARSIM_SRC_IO_DISK_H_
#define PARSIM_SRC_IO_DISK_H_

#include <cstdint>
#include <memory>

#include "src/io/buffer_pool.h"
#include "src/io/cost_capture.h"
#include "src/io/disk_model.h"

namespace parsim {

/// Identifier of a disk within a DiskArray.
using DiskId = std::uint32_t;

/// A simulated disk. Cumulative counters are not thread-safe; concurrent
/// queries must run under a ScopedCostCapture (the engine's query paths
/// always do) so traversals only write per-query accumulators.
class SimulatedDisk {
 public:
  explicit SimulatedDisk(DiskId id, DiskParameters params = {})
      : id_(id), params_(params) {}

  DiskId id() const { return id_; }
  const DiskParameters& parameters() const { return params_; }

  /// Injected fault state. Setting it must not race with queries: inject
  /// faults between query waves, like Insert/Remove.
  void set_fault(const DiskFault& fault) { fault_ = fault; }
  const DiskFault& fault() const { return fault_; }
  bool is_failed() const { return fault_.health == DiskHealth::kFailed; }
  bool is_slow() const { return fault_.health == DiskHealth::kSlow; }
  /// Elapsed-time multiplier of the current fault state (1.0 if healthy).
  double time_scale() const { return fault_.TimeScale(); }

  /// Records a failover served by THIS disk (the replica of a failed
  /// primary): `attempts` timed-out reads against the primary plus
  /// `pages` pages served here on its behalf. The actual page charges
  /// follow separately through the normal Read* calls.
  void RecordFailover(std::uint64_t attempts, std::uint64_t pages) {
    DiskStats& sink = Sink();
    sink.failed_read_attempts += attempts;
    sink.replica_pages_read += pages;
  }

  /// Records `pages` that no healthy copy could serve (this disk failed
  /// and had no replica). Queries seeing any unavailable page report
  /// kUnavailable through the engine's TryQuery.
  void RecordUnavailable(std::uint64_t pages) {
    Sink().unavailable_pages += pages;
  }

  /// Charges one data-page (leaf) read. `pages` > 1 models a multi-page
  /// read, e.g. an X-tree supernode.
  void ReadDataPages(std::uint64_t pages = 1) {
    Sink().data_pages_read += pages;
  }

  /// Charges one directory-page (inner node) read.
  void ReadDirectoryPages(std::uint64_t pages = 1) {
    Sink().directory_pages_read += pages;
  }

  /// Attaches shard `shard` of `pool` (not owned; must outlive this
  /// disk) as the main-memory page buffer. nullptr detaches. Resident
  /// blocks are served without I/O charges. The buffer persists across
  /// ResetStats() — that is its purpose.
  void AttachBufferPool(BufferPool* pool, std::size_t shard) {
    owned_pool_.reset();
    pool_ = pool;
    shard_ = pool != nullptr ? shard : 0;
  }

  /// Convenience for a standalone disk: installs a private single-shard
  /// pool of `pages` pages (0 removes any buffer, attached or owned).
  void ConfigureBuffer(std::uint64_t pages) {
    if (pages == 0) {
      AttachBufferPool(nullptr, 0);
      return;
    }
    owned_pool_ = std::make_unique<BufferPool>(/*num_shards=*/1, pages);
    pool_ = owned_pool_.get();
    shard_ = 0;
  }

  bool has_buffer() const { return pool_ != nullptr; }

  /// The attached pool (nullptr without one) and this disk's shard in it.
  const BufferPool* buffer_pool() const { return pool_; }
  std::size_t buffer_shard() const { return shard_; }

  /// Buffered variant of ReadDataPages: `key` identifies the block (a
  /// node id); hits charge nothing but are counted.
  void ReadDataPagesBuffered(std::uint64_t key, std::uint64_t pages = 1) {
    DiskStats& sink = Sink();
    if (pool_ != nullptr && pool_->Touch(shard_, key, pages)) {
      sink.buffer_hit_pages += pages;
      return;
    }
    sink.data_pages_read += pages;
  }

  /// Buffered variant of ReadDirectoryPages.
  void ReadDirectoryPagesBuffered(std::uint64_t key, std::uint64_t pages = 1) {
    DiskStats& sink = Sink();
    if (pool_ != nullptr && pool_->Touch(shard_, key, pages)) {
      sink.buffer_hit_pages += pages;
      return;
    }
    sink.directory_pages_read += pages;
  }

  /// Charges page writes (index construction).
  void WritePages(std::uint64_t pages = 1) { Sink().pages_written += pages; }

  /// Charges CPU for distance computations.
  void ChargeDistanceComputations(std::uint64_t n = 1) {
    Sink().distance_computations += n;
  }

  /// Records one leaf sweep's quantization counters (no simulated time:
  /// these audit the work the SQ8 bound removed or left; exact re-ranks
  /// are charged separately via ChargeDistanceComputations).
  void RecordLeafSweep(std::uint64_t pruned, std::uint64_t base,
                       std::uint64_t sq8, std::uint64_t reranked_points,
                       std::uint64_t bytes, std::uint64_t approx_exact = 0) {
    DiskStats& sink = Sink();
    sink.quantized_pruned += pruned;
    sink.base_pruned += base;
    sink.sq8_pruned += sq8;
    sink.reranked += reranked_points;
    sink.leaf_bytes_scanned += bytes;
    sink.approx_pruned_exactly += approx_exact;
  }

  /// Records one query's HS frontier traffic (no simulated time; audits
  /// the descent/frontier fast path and the approximate tier's node
  /// skips).
  void RecordFrontier(std::uint64_t pushes, std::uint64_t pops,
                      std::uint64_t skipped_nodes,
                      std::uint64_t approx_skipped = 0) {
    DiskStats& sink = Sink();
    sink.frontier_pushes += pushes;
    sink.frontier_pops += pops;
    sink.cutoff_skipped_nodes += skipped_nodes;
    sink.approx_skipped_nodes += approx_skipped;
  }

  const DiskStats& stats() const { return stats_; }

  /// Simulated elapsed time for everything charged since the last reset,
  /// scaled by the disk's fault state (a slow disk takes slow_factor
  /// times longer for the same accesses).
  double ElapsedMs() const {
    return parsim::ElapsedMs(stats_, params_) * time_scale();
  }

  /// Elapsed time at healthy rates, ignoring the fault state.
  double HealthyElapsedMs() const {
    return parsim::HealthyElapsedMs(stats_, params_);
  }

  void ResetStats() { stats_ = DiskStats{}; }

  /// Folds externally captured per-query counters into the cumulative
  /// stats. Callers serialize (the engine merges under its own lock).
  void MergeStats(const DiskStats& delta) { stats_ += delta; }

 private:
  /// Where charges from the current thread go: the active per-query
  /// capture's slot for this disk, or the shared cumulative counters.
  DiskStats& Sink() {
    if (QueryCostAccumulator* capture = ActiveCostCapture()) {
      return capture->slot(id_);
    }
    return stats_;
  }

  DiskId id_;
  DiskParameters params_;
  DiskFault fault_;
  DiskStats stats_;
  // ConfigureBuffer's private pool; empty when AttachBufferPool wired
  // this disk into a shared (engine- or array-owned) pool.
  std::unique_ptr<BufferPool> owned_pool_;
  BufferPool* pool_ = nullptr;
  std::size_t shard_ = 0;
};

}  // namespace parsim

#endif  // PARSIM_SRC_IO_DISK_H_
