#include "src/io/disk_array.h"

#include "src/util/check.h"

namespace parsim {

DiskArray::DiskArray(std::size_t n, DiskParameters params) {
  PARSIM_CHECK(n >= 1);
  disks_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    disks_.emplace_back(static_cast<DiskId>(i), params);
  }
}

SimulatedDisk& DiskArray::disk(DiskId id) {
  PARSIM_CHECK(id < disks_.size());
  return disks_[id];
}

const SimulatedDisk& DiskArray::disk(DiskId id) const {
  PARSIM_CHECK(id < disks_.size());
  return disks_[id];
}

DiskStats DiskArray::TotalStats() const {
  DiskStats total;
  for (const auto& d : disks_) total += d.stats();
  return total;
}

void DiskArray::ResetStats() {
  for (auto& d : disks_) d.ResetStats();
}

void DiskArray::AttachBufferPool(BufferPool* pool) {
  PARSIM_CHECK(pool == nullptr || pool->num_shards() >= disks_.size());
  for (std::size_t i = 0; i < disks_.size(); ++i) {
    disks_[i].AttachBufferPool(pool, i);
  }
}

void DiskArray::ApplyFaultPlan(const FaultPlan& plan) {
  if (plan.empty()) {
    ClearFaults();
    return;
  }
  PARSIM_CHECK(plan.num_disks() == disks_.size());
  for (std::size_t d = 0; d < disks_.size(); ++d) {
    disks_[d].set_fault(plan.fault(static_cast<DiskId>(d)));
  }
  fault_plan_ = plan;
}

void DiskArray::ClearFaults() {
  for (auto& d : disks_) d.set_fault(DiskFault{});
  fault_plan_ = FaultPlan{};
}

}  // namespace parsim
