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

#include <cstddef>
#include <cstdint>

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
    sink.replica_pages += pages;
  }

  /// Records `pages` that no healthy copy could serve (this disk failed
  /// and had no replica). Queries seeing any unavailable page report
  /// kUnavailable through the engine's TryQuery. The shared-tree engine
  /// still charges the would-be reads to the failed primary; the
  /// federated engines skip the partition's work and record only this.
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
    pool_ = pool;
    shard_ = pool != nullptr ? shard : 0;
  }

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

  /// Adds work counters to this disk's charges: a leaf sweep's (its
  /// distance_computations are simulated CPU; the prune/re-rank/bytes
  /// counters audit what the SQ8 bound removed or left) or a search's
  /// frontier traffic (no simulated time).
  void Record(const Counters& counters) { Sink() += counters; }

  const DiskStats& stats() const { return stats_; }

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
  BufferPool* pool_ = nullptr;
  std::size_t shard_ = 0;
};

}  // namespace parsim

#endif  // PARSIM_SRC_IO_DISK_H_
