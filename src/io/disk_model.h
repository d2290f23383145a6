// Cost model for one simulated disk.
//
// The paper's experiments ran on a cluster of 16 HP 735/755 workstations
// with local disks; its performance metric is "the disk which accesses
// most pages during query processing ... we used the search time of this
// disk as the search time of the whole parallel X-tree" (Section 5).
// We reproduce exactly that metric on one machine: every page access is
// charged to the owning simulated disk, and elapsed time is derived from
// the page count through this cost model.

#ifndef PARSIM_SRC_IO_DISK_MODEL_H_
#define PARSIM_SRC_IO_DISK_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/io/counters.h"

namespace parsim {

/// Page size used throughout, matching the paper ("The block size used is
/// 4 KBytes", Section 5).
inline constexpr std::size_t kPageSizeBytes = 4096;

/// Timing parameters of one simulated disk. Defaults approximate a
/// mid-1990s SCSI disk (the paper's era): ~8 ms average seek, ~4 ms
/// average rotational latency (7200 rpm half-rotation), ~5 MB/s sustained
/// transfer (0.8 ms for a 4 KB page).
struct DiskParameters {
  double avg_seek_ms = 8.0;
  double avg_rotational_ms = 4.0;
  double transfer_ms_per_page = 0.8;
  /// CPU cost charged per distance computation during search; models the
  /// (small but nonzero) CPU share of nearest-neighbor search.
  double cpu_ms_per_distance = 0.001;
  /// Cost of one timed-out read attempt against a failed disk before the
  /// engine fails over to a replica (fail-fast detection, not a full SCSI
  /// timeout — the array learns quickly that a disk is dead).
  double failover_timeout_ms = 1.0;

  /// Cost of one random page read.
  double PageAccessMs() const {
    return avg_seek_ms + avg_rotational_ms + transfer_ms_per_page;
  }
};

// ---------------------------------------------------------------------------
// Fault injection.

/// Health of one simulated disk.
enum class DiskHealth {
  kHealthy = 0,
  /// Serves every request, but `slow_factor` times slower (a degraded
  /// spindle, a congested node).
  kSlow,
  /// Serves nothing; reads must fail over to a replica or go unavailable.
  kFailed,
};

const char* DiskHealthToString(DiskHealth health);

/// Injected state of one disk.
struct DiskFault {
  DiskHealth health = DiskHealth::kHealthy;
  /// Elapsed-time multiplier, applied when health == kSlow (>= 1).
  double slow_factor = 1.0;

  /// Multiplier this fault applies to the disk's elapsed time (1.0 for
  /// healthy and failed disks — a failed disk does no work at all).
  double TimeScale() const {
    return health == DiskHealth::kSlow ? slow_factor : 1.0;
  }
};

/// A deterministic per-disk fault schedule, injectable into a DiskArray.
/// An empty (default) plan means every disk is healthy. The seeded
/// factories make fault runs exactly reproducible: the same
/// (num_disks, count, seed) triple always yields the same plan.
class FaultPlan {
 public:
  /// Empty plan: all disks healthy, applies to an array of any size.
  FaultPlan() = default;

  /// All-healthy plan for `num_disks` disks.
  explicit FaultPlan(std::size_t num_disks) : faults_(num_disks) {}

  /// `failures` distinct disks failed, chosen by a seeded shuffle.
  static FaultPlan WithRandomFailures(std::size_t num_disks,
                                      std::size_t failures,
                                      std::uint64_t seed);

  /// `slow` distinct disks slowed by `factor`, chosen by a seeded shuffle.
  static FaultPlan WithRandomSlowdowns(std::size_t num_disks,
                                       std::size_t slow, double factor,
                                       std::uint64_t seed);

  std::size_t num_disks() const { return faults_.size(); }
  bool empty() const { return faults_.empty(); }

  void FailDisk(std::uint32_t disk);
  void SlowDisk(std::uint32_t disk, double factor);
  void HealDisk(std::uint32_t disk);

  /// The fault of `disk`. On an empty plan any disk id answers healthy
  /// (the empty plan covers arrays of every size); a non-empty plan
  /// requires disk < num_disks().
  const DiskFault& fault(std::uint32_t disk) const;
  bool IsFailed(std::uint32_t disk) const;

  std::size_t NumFailed() const;
  std::size_t NumSlow() const;

  /// "disk 3: FAILED, disk 7: SLOW x4.0" (healthy disks omitted).
  std::string ToString() const;

 private:
  std::vector<DiskFault> faults_;
};

/// Cumulative access statistics of one disk (or of a whole array): the
/// cost model's page inputs plus the work counters.
struct DiskStats : Counters {
  std::uint64_t data_pages_read = 0;
  std::uint64_t directory_pages_read = 0;
  std::uint64_t pages_written = 0;

  std::uint64_t TotalPagesRead() const {
    return data_pages_read + directory_pages_read;
  }

  using Counters::operator+=;
  DiskStats& operator+=(const DiskStats& other) {
    Counters::operator+=(other);
    data_pages_read += other.data_pages_read;
    directory_pages_read += other.directory_pages_read;
    pages_written += other.pages_written;
    return *this;
  }
};

/// Simulated elapsed time at healthy rates: page and CPU work only, no
/// fault penalties. This is the paper's original cost formula.
inline double HealthyElapsedMs(const DiskStats& stats,
                               const DiskParameters& params) {
  return static_cast<double>(stats.TotalPagesRead()) * params.PageAccessMs() +
         static_cast<double>(stats.distance_computations) *
             params.cpu_ms_per_distance;
}

/// Simulated elapsed time including failover retry penalties. Identical
/// (bit for bit) to HealthyElapsedMs when no faults were encountered.
inline double ElapsedMs(const DiskStats& stats, const DiskParameters& params) {
  return HealthyElapsedMs(stats, params) +
         static_cast<double>(stats.failed_read_attempts) *
             params.failover_timeout_ms;
}

}  // namespace parsim

#endif  // PARSIM_SRC_IO_DISK_MODEL_H_
