// FaultPlan and SimulatedDisk fault semantics: seeded determinism, the
// slow/failed cost arithmetic, and DiskArray plan application.

#include <gtest/gtest.h>

#include "src/io/disk.h"
#include "src/io/disk_array.h"
#include "src/io/disk_model.h"

namespace parsim {
namespace {

/// How many disks of `array` are in the state `is` tests for (is_failed or
/// is_slow).
std::size_t CountDisks(const DiskArray& array,
                       bool (SimulatedDisk::*is)() const) {
  std::size_t n = 0;
  for (DiskId d = 0; d < array.size(); ++d) n += (array.disk(d).*is)();
  return n;
}

TEST(FaultPlanTest, DefaultPlanIsEmptyAndHealthy) {
  const FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.NumFailed(), 0u);
  EXPECT_EQ(plan.NumSlow(), 0u);

  const FaultPlan sized(8);
  EXPECT_FALSE(sized.empty());
  EXPECT_EQ(sized.num_disks(), 8u);
  EXPECT_EQ(sized.NumFailed(), 0u);
  for (std::uint32_t d = 0; d < 8; ++d) {
    EXPECT_EQ(sized.fault(d).health, DiskHealth::kHealthy);
    EXPECT_FALSE(sized.IsFailed(d));
  }
}

TEST(FaultPlanTest, EmptyPlanReportsHealthyForAnyDisk) {
  // Regression: fault() used to index faults_ unconditionally, so a
  // default-constructed (empty) plan crashed on the first lookup even
  // though "empty" is documented as "every disk healthy".
  const FaultPlan plan;
  for (std::uint32_t d : {0u, 1u, 7u, 1000u}) {
    EXPECT_EQ(plan.fault(d).health, DiskHealth::kHealthy) << "disk " << d;
    EXPECT_DOUBLE_EQ(plan.fault(d).TimeScale(), 1.0);
    EXPECT_FALSE(plan.IsFailed(d)) << "disk " << d;
  }
}

TEST(FaultPlanTest, MutatorsSetAndClearStates) {
  FaultPlan plan(4);
  plan.FailDisk(1);
  plan.SlowDisk(3, 4.0);
  EXPECT_TRUE(plan.IsFailed(1));
  EXPECT_EQ(plan.fault(3).health, DiskHealth::kSlow);
  EXPECT_DOUBLE_EQ(plan.fault(3).slow_factor, 4.0);
  EXPECT_DOUBLE_EQ(plan.fault(3).TimeScale(), 4.0);
  EXPECT_DOUBLE_EQ(plan.fault(1).TimeScale(), 1.0);  // failed: no scaling
  EXPECT_EQ(plan.NumFailed(), 1u);
  EXPECT_EQ(plan.NumSlow(), 1u);

  plan.HealDisk(1);
  plan.HealDisk(3);
  EXPECT_EQ(plan.NumFailed(), 0u);
  EXPECT_EQ(plan.NumSlow(), 0u);
}

TEST(FaultPlanTest, SeededFailuresAreDeterministicAndDistinct) {
  const FaultPlan a = FaultPlan::WithRandomFailures(16, 4, 99);
  const FaultPlan b = FaultPlan::WithRandomFailures(16, 4, 99);
  const FaultPlan c = FaultPlan::WithRandomFailures(16, 4, 100);
  EXPECT_EQ(a.NumFailed(), 4u);
  EXPECT_EQ(b.NumFailed(), 4u);
  std::size_t differs_from_c = 0;
  for (std::uint32_t d = 0; d < 16; ++d) {
    EXPECT_EQ(a.IsFailed(d), b.IsFailed(d)) << "disk " << d;
    if (a.IsFailed(d) != c.IsFailed(d)) ++differs_from_c;
  }
  // A different seed must not be forced to differ, but with 16-choose-4
  // plans a collision would be suspicious; the chosen seeds differ.
  EXPECT_GT(differs_from_c, 0u);
  EXPECT_EQ(a.ToString(), b.ToString());
}

TEST(FaultPlanTest, SeededSlowdownsCarryTheFactor) {
  const FaultPlan plan = FaultPlan::WithRandomSlowdowns(8, 3, 2.5, 7);
  EXPECT_EQ(plan.NumSlow(), 3u);
  EXPECT_EQ(plan.NumFailed(), 0u);
  for (std::uint32_t d = 0; d < 8; ++d) {
    if (plan.fault(d).health == DiskHealth::kSlow) {
      EXPECT_DOUBLE_EQ(plan.fault(d).slow_factor, 2.5);
    }
  }
}

TEST(SimulatedDiskFaultTest, SlowDiskScalesElapsedTimeOnly) {
  const DiskParameters params;
  SimulatedDisk healthy(0, params);
  SimulatedDisk slow(1, params);
  slow.set_fault(DiskFault{DiskHealth::kSlow, 3.0});

  healthy.ReadDataPages(10);
  slow.ReadDataPages(10);
  EXPECT_EQ(healthy.stats().data_pages_read, slow.stats().data_pages_read);
  // The engine scales a disk's charges by its fault state's time_scale().
  EXPECT_DOUBLE_EQ(healthy.time_scale(), 1.0);
  EXPECT_DOUBLE_EQ(ElapsedMs(slow.stats(), params) * slow.time_scale(),
                   3.0 * ElapsedMs(healthy.stats(), params) *
                       healthy.time_scale());
  // The healthy figure ignores the fault: identical for both disks.
  EXPECT_DOUBLE_EQ(HealthyElapsedMs(slow.stats(), params),
                   HealthyElapsedMs(healthy.stats(), params));
}

TEST(SimulatedDiskFaultTest, FailoverChargesRetryTimeouts) {
  DiskParameters params;
  params.failover_timeout_ms = 2.0;
  SimulatedDisk replica(0, params);
  replica.ReadDataPages(5);
  const double base_ms = ElapsedMs(replica.stats(), params);
  replica.RecordFailover(/*attempts=*/3, /*pages=*/5);
  EXPECT_EQ(replica.stats().failed_read_attempts, 3u);
  EXPECT_EQ(replica.stats().replica_pages, 5u);
  EXPECT_DOUBLE_EQ(ElapsedMs(replica.stats(), params), base_ms + 3 * 2.0);
  // Retry penalties are a fault artifact: absent from the healthy figure.
  EXPECT_DOUBLE_EQ(HealthyElapsedMs(replica.stats(), params), base_ms);
}

TEST(SimulatedDiskFaultTest, UnavailablePagesAreCountedNotTimed) {
  SimulatedDisk disk(0, DiskParameters{});
  disk.set_fault(DiskFault{DiskHealth::kFailed, 1.0});
  disk.RecordUnavailable(7);
  EXPECT_EQ(disk.stats().unavailable_pages, 7u);
  EXPECT_EQ(disk.stats().data_pages_read, 0u);
  EXPECT_DOUBLE_EQ(disk.time_scale(), 1.0);
  EXPECT_DOUBLE_EQ(ElapsedMs(disk.stats(), disk.parameters()), 0.0);
}

TEST(DiskArrayFaultTest, ApplyAndClearFaultPlan) {
  DiskArray array(8);
  FaultPlan plan(8);
  plan.FailDisk(2);
  plan.SlowDisk(5, 2.0);
  array.ApplyFaultPlan(plan);
  EXPECT_TRUE(array.disk(2).is_failed());
  EXPECT_TRUE(array.disk(5).is_slow());
  EXPECT_EQ(CountDisks(array, &SimulatedDisk::is_failed), 1u);
  EXPECT_EQ(CountDisks(array, &SimulatedDisk::is_slow), 1u);
  EXPECT_EQ(array.fault_plan().NumFailed(), 1u);

  array.ClearFaults();
  EXPECT_EQ(CountDisks(array, &SimulatedDisk::is_failed), 0u);
  EXPECT_EQ(CountDisks(array, &SimulatedDisk::is_slow), 0u);
  EXPECT_TRUE(array.fault_plan().empty());
}

TEST(DiskArrayFaultTest, EmptyPlanHealsEveryDisk) {
  DiskArray array(4);
  array.ApplyFaultPlan(FaultPlan::WithRandomFailures(4, 2, 11));
  EXPECT_EQ(CountDisks(array, &SimulatedDisk::is_failed), 2u);
  array.ApplyFaultPlan(FaultPlan{});
  EXPECT_EQ(CountDisks(array, &SimulatedDisk::is_failed), 0u);
}

TEST(DiskArrayFaultTest, FaultsSurviveStatsReset) {
  DiskArray array(4);
  array.ApplyFaultPlan(FaultPlan::WithRandomFailures(4, 1, 13));
  array.disk(0).ReadDataPages(3);
  array.ResetStats();
  // Health is state, not stats.
  EXPECT_EQ(CountDisks(array, &SimulatedDisk::is_failed), 1u);
  EXPECT_EQ(array.TotalStats().TotalPagesRead(), 0u);
}

TEST(ElapsedMsTest, HealthyAndFaultyFormulasAgreeWithoutFaults) {
  DiskStats stats;
  stats.data_pages_read = 12;
  stats.directory_pages_read = 3;
  stats.distance_computations = 100;
  const DiskParameters params;
  EXPECT_DOUBLE_EQ(ElapsedMs(stats, params), HealthyElapsedMs(stats, params));
  stats.failed_read_attempts = 4;
  EXPECT_DOUBLE_EQ(ElapsedMs(stats, params),
                   HealthyElapsedMs(stats, params) +
                       4 * params.failover_timeout_ms);
}

TEST(DiskHealthTest, ToStringNamesAllStates) {
  EXPECT_STREQ(DiskHealthToString(DiskHealth::kHealthy), "HEALTHY");
  EXPECT_STREQ(DiskHealthToString(DiskHealth::kSlow), "SLOW");
  EXPECT_STREQ(DiskHealthToString(DiskHealth::kFailed), "FAILED");
}

}  // namespace
}  // namespace parsim
