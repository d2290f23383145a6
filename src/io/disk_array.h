// An array of n simulated disks served in parallel.
//
// The array holds the disks, their cumulative counters and their fault
// state. It does not turn charges into time: the paper's rule (a
// parallel operation takes as long as its slowest disk) is applied in
// one place, ParallelSearchEngine::StatsFromAccumulator, to each
// operation's captured charges.

#ifndef PARSIM_SRC_IO_DISK_ARRAY_H_
#define PARSIM_SRC_IO_DISK_ARRAY_H_

#include <cstddef>
#include <vector>

#include "src/io/buffer_pool.h"
#include "src/io/disk.h"
#include "src/io/disk_model.h"

namespace parsim {

/// A fixed-size array of simulated disks.
class DiskArray {
 public:
  /// Creates `n` disks (n >= 1) with identical parameters.
  explicit DiskArray(std::size_t n, DiskParameters params = {});

  std::size_t size() const { return disks_.size(); }

  SimulatedDisk& disk(DiskId id);
  const SimulatedDisk& disk(DiskId id) const;

  /// Aggregated stats over all disks.
  DiskStats TotalStats() const;

  void ResetStats();

  /// Attaches disk i to shard i of `pool` (not owned; must have at
  /// least size() shards and outlive the array). nullptr detaches.
  void AttachBufferPool(BufferPool* pool);

  /// Applies `plan` to every disk. The plan must be empty (all healthy)
  /// or cover exactly size() disks. Do not race with in-flight queries:
  /// inject faults between query waves.
  void ApplyFaultPlan(const FaultPlan& plan);

  /// Restores every disk to healthy.
  void ClearFaults();

  /// The plan last applied (empty if none / cleared).
  const FaultPlan& fault_plan() const { return fault_plan_; }

 private:
  std::vector<SimulatedDisk> disks_;
  FaultPlan fault_plan_;
};

}  // namespace parsim

#endif  // PARSIM_SRC_IO_DISK_ARRAY_H_
