#include "src/io/disk.h"

#include <gtest/gtest.h>

#include "src/io/disk_array.h"
#include "src/io/disk_model.h"

namespace parsim {
namespace {

TEST(DiskModelTest, PageAccessCostIsSumOfComponents) {
  DiskParameters params;
  params.avg_seek_ms = 8.0;
  params.avg_rotational_ms = 4.0;
  params.transfer_ms_per_page = 0.8;
  EXPECT_DOUBLE_EQ(params.PageAccessMs(), 12.8);
}

TEST(DiskModelTest, ElapsedCombinesIoAndCpu) {
  DiskParameters params;
  params.avg_seek_ms = 10.0;
  params.avg_rotational_ms = 0.0;
  params.transfer_ms_per_page = 0.0;
  params.cpu_ms_per_distance = 0.5;
  DiskStats stats;
  stats.data_pages_read = 3;
  stats.directory_pages_read = 2;
  stats.distance_computations = 4;
  EXPECT_DOUBLE_EQ(ElapsedMs(stats, params), 5 * 10.0 + 4 * 0.5);
}

TEST(DiskStatsTest, Accumulation) {
  DiskStats a, b;
  a.data_pages_read = 1;
  a.directory_pages_read = 2;
  a.pages_written = 3;
  a.distance_computations = 4;
  b.data_pages_read = 10;
  b.directory_pages_read = 20;
  b.pages_written = 30;
  b.distance_computations = 40;
  a += b;
  EXPECT_EQ(a.data_pages_read, 11u);
  EXPECT_EQ(a.directory_pages_read, 22u);
  EXPECT_EQ(a.pages_written, 33u);
  EXPECT_EQ(a.distance_computations, 44u);
  EXPECT_EQ(a.TotalPagesRead(), 33u);
}

TEST(SimulatedDiskTest, CountersStartAtZero) {
  SimulatedDisk d(0);
  EXPECT_EQ(d.stats().TotalPagesRead(), 0u);
  EXPECT_EQ(ElapsedMs(d.stats(), d.parameters()), 0.0);
}

TEST(SimulatedDiskTest, ChargesAccumulate) {
  SimulatedDisk d(3);
  EXPECT_EQ(d.id(), 3u);
  d.ReadDataPages();
  d.ReadDataPages(4);
  d.ReadDirectoryPages(2);
  d.WritePages(7);
  d.ChargeDistanceComputations(10);
  EXPECT_EQ(d.stats().data_pages_read, 5u);
  EXPECT_EQ(d.stats().directory_pages_read, 2u);
  EXPECT_EQ(d.stats().pages_written, 7u);
  EXPECT_EQ(d.stats().distance_computations, 10u);
  EXPECT_EQ(d.stats().TotalPagesRead(), 7u);
  EXPECT_GT(ElapsedMs(d.stats(), d.parameters()), 0.0);
}

TEST(SimulatedDiskTest, ResetClearsCounters) {
  SimulatedDisk d(0);
  d.ReadDataPages(5);
  d.ResetStats();
  EXPECT_EQ(d.stats().TotalPagesRead(), 0u);
  EXPECT_EQ(ElapsedMs(d.stats(), d.parameters()), 0.0);
}

TEST(DiskArrayTest, SizeAndIds) {
  DiskArray array(4);
  EXPECT_EQ(array.size(), 4u);
  for (DiskId i = 0; i < 4; ++i) EXPECT_EQ(array.disk(i).id(), i);
}

TEST(DiskArrayTest, TotalStatsAggregates) {
  DiskArray array(2);
  array.disk(0).ReadDataPages(3);
  array.disk(1).ReadDirectoryPages(4);
  array.disk(1).ChargeDistanceComputations(5);
  const DiskStats total = array.TotalStats();
  EXPECT_EQ(total.data_pages_read, 3u);
  EXPECT_EQ(total.directory_pages_read, 4u);
  EXPECT_EQ(total.distance_computations, 5u);
}

TEST(DiskArrayTest, ResetStatsClearsAllDisks) {
  DiskArray array(3);
  for (DiskId i = 0; i < 3; ++i) array.disk(i).ReadDataPages(i + 1);
  array.ResetStats();
  EXPECT_EQ(array.TotalStats().TotalPagesRead(), 0u);
}

TEST(DiskArrayDeathTest, ZeroDisksForbidden) {
  EXPECT_DEATH(DiskArray(0), "PARSIM_CHECK");
}

TEST(DiskArrayDeathTest, OutOfRangeDiskId) {
  DiskArray array(2);
  EXPECT_DEATH(array.disk(2), "PARSIM_CHECK");
}

TEST(DiskModelTest, PageSizeMatchesPaper) {
  EXPECT_EQ(kPageSizeBytes, 4096u);
}

}  // namespace
}  // namespace parsim
