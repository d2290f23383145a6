// Unit and concurrency tests of the sharded page-buffer pool. The
// concurrency tests run in the TSAN lane of tools/ci.sh, so any race on
// a shard's LRU or counters is caught here.

#include <algorithm>
#include <cstdint>
#include <latch>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/io/buffer_pool.h"
#include "src/io/disk.h"
#include "src/io/disk_array.h"

namespace parsim {
namespace {

TEST(BufferPoolTest, MissThenHitPerShard) {
  BufferPool pool(2, 4);
  EXPECT_FALSE(pool.Touch(0, 1, 1));
  EXPECT_TRUE(pool.Touch(0, 1, 1));
  // Shards are independent: the same key misses on the other shard.
  EXPECT_FALSE(pool.Touch(1, 1, 1));
  EXPECT_TRUE(pool.Contains(0, 1));
  EXPECT_TRUE(pool.Contains(1, 1));
  EXPECT_EQ(pool.TotalHitPages(), 1u);
  EXPECT_EQ(pool.TotalMissPages(), 2u);
  EXPECT_EQ(pool.TotalTouchedPages(), 3u);
}

TEST(BufferPoolTest, ShardsEvictIndependently) {
  BufferPool pool(2, 2);
  pool.Touch(0, 1, 1);
  pool.Touch(0, 2, 1);
  pool.Touch(1, 9, 2);
  pool.Touch(0, 3, 1);  // evicts key 1 on shard 0 only
  EXPECT_FALSE(pool.Contains(0, 1));
  EXPECT_TRUE(pool.Contains(0, 2));
  EXPECT_TRUE(pool.Contains(1, 9));
  EXPECT_EQ(pool.ShardWeight(0), 2u);
  EXPECT_EQ(pool.ShardWeight(1), 2u);
}

TEST(BufferPoolTest, WeightUpdateCarriesIntoShards) {
  // The LruCache re-admission fix: a resident key re-touched at a larger
  // weight must update the shard's resident weight (and evict if the
  // shard now overflows) instead of keeping the stale weight.
  BufferPool pool(1, 6);
  pool.Touch(0, 1, 2);
  pool.Touch(0, 2, 2);
  EXPECT_EQ(pool.ShardWeight(0), 4u);
  EXPECT_TRUE(pool.Touch(0, 1, 4));  // supernode 1 grew: 2 -> 4 pages
  EXPECT_EQ(pool.ShardWeight(0), 6u);
  EXPECT_TRUE(pool.Touch(0, 1, 4));
  pool.Touch(0, 3, 2);  // 6 + 2 > 6: evicts key 2 (LRU), not the grown 1
  EXPECT_TRUE(pool.Contains(0, 1));
  EXPECT_FALSE(pool.Contains(0, 2));
  EXPECT_LE(pool.ShardWeight(0), 6u);
}

TEST(BufferPoolTest, ClearDropsContentsAndCounters) {
  BufferPool pool(2, 4);
  pool.Touch(0, 1, 1);
  pool.Touch(0, 1, 1);
  pool.Touch(1, 2, 3);
  pool.Clear();
  EXPECT_EQ(pool.TotalHitPages(), 0u);
  EXPECT_EQ(pool.TotalMissPages(), 0u);
  EXPECT_FALSE(pool.Contains(0, 1));
  EXPECT_FALSE(pool.Touch(0, 1, 1));  // cold again
}

TEST(BufferPoolTest, ZeroCapacityAlwaysMissesButCounts) {
  BufferPool pool(1, 0);
  EXPECT_FALSE(pool.Touch(0, 1, 2));
  EXPECT_FALSE(pool.Touch(0, 1, 2));
  EXPECT_EQ(pool.TotalMissPages(), 4u);
  EXPECT_EQ(pool.TotalHitPages(), 0u);
}

// One touch of the concurrency workload below. Three kinds, chosen so
// the schedule cannot flake the workload-sanity assertions: a pinned
// key 0 refreshed on every other touch (between two refreshes its shard
// receives at most one other insertion from the refreshing thread, so
// LRU can never age it out during that thread's run — hits are
// guaranteed even if the scheduler serializes the threads end to end),
// a warm 23-key cycle whose weight exceeds a shard (forces evictions),
// and per-thread unique cold keys (misses are guaranteed).
struct PlannedTouch {
  std::size_t shard;
  std::uint64_t key;
  std::uint64_t pages;
};

PlannedTouch PlanTouch(unsigned t, std::uint64_t touches_per_thread,
                       std::uint64_t i, std::size_t num_shards) {
  const std::size_t shard = (t + i) % num_shards;
  if (i % 7 == 0) {
    return {shard, 1000 + t * touches_per_thread + i, 1 + i % 3};  // cold
  }
  if (i % 2 == 0) return {shard, 0, 1};  // pinned hot
  return {shard, 1 + i % 23, 1 + i % 3};  // warm cycle
}

// The aggregate accounting contract: under any interleaving, every
// touched page is exactly one hit or one miss, so hits + misses equals
// the (deterministic) total touched pages — per shard and overall.
TEST(BufferPoolTest, AggregateAccountingExactUnderConcurrency) {
  const unsigned num_threads =
      std::max(2u, std::min(8u, std::thread::hardware_concurrency()));
  constexpr std::size_t kShards = 4;
  constexpr std::uint64_t kTouchesPerThread = 5000;
  BufferPool pool(kShards, 16);

  std::vector<std::thread> threads;
  std::latch start(num_threads);
  for (unsigned t = 0; t < num_threads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (std::uint64_t i = 0; i < kTouchesPerThread; ++i) {
        const PlannedTouch touch = PlanTouch(t, kTouchesPerThread, i, kShards);
        (void)pool.Touch(touch.shard, touch.key, touch.pages);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::uint64_t expected = 0;
  for (unsigned t = 0; t < num_threads; ++t) {
    for (std::uint64_t i = 0; i < kTouchesPerThread; ++i) {
      expected += PlanTouch(t, kTouchesPerThread, i, kShards).pages;
    }
  }
  EXPECT_EQ(pool.TotalTouchedPages(), expected);
  EXPECT_EQ(pool.TotalHitPages() + pool.TotalMissPages(), expected);
  EXPECT_GT(pool.TotalHitPages(), 0u) << "hot keys must produce hits";
  EXPECT_GT(pool.TotalMissPages(), 0u) << "cold tail must produce misses";
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_LE(pool.ShardWeight(s), pool.pages_per_shard());
  }
}

TEST(BufferedDiskPoolTest, AttachedDisksShareOnePool) {
  BufferPool pool(3, 8);
  DiskArray array(2);
  array.AttachBufferPool(&pool);
  SimulatedDisk host(2);
  host.AttachBufferPool(&pool, 2);

  array.disk(0).ReadDataPagesBuffered(/*key=*/5, 2);  // miss
  array.disk(0).ReadDataPagesBuffered(/*key=*/5, 2);  // hit
  array.disk(1).ReadDataPagesBuffered(/*key=*/5, 2);  // own shard: miss
  host.ReadDirectoryPagesBuffered(/*key=*/5, 1);      // own shard: miss
  EXPECT_EQ(array.disk(0).stats().data_pages_read, 2u);
  EXPECT_EQ(array.disk(0).stats().buffer_hit_pages, 2u);
  EXPECT_EQ(array.disk(1).stats().data_pages_read, 2u);
  EXPECT_EQ(host.stats().directory_pages_read, 1u);
  EXPECT_EQ(pool.TotalTouchedPages(), 7u);
  // Disk i buffers in shard i, the host in the shard it named.
  EXPECT_EQ(pool.ShardWeight(0), 2u);
  EXPECT_EQ(pool.ShardWeight(1), 2u);
  EXPECT_EQ(pool.ShardWeight(2), 1u);

  array.AttachBufferPool(nullptr);
  for (DiskId d = 0; d < 2; ++d) {
    array.disk(d).ReadDataPagesBuffered(/*key=*/5, 2);  // detached: charged
    EXPECT_EQ(array.disk(d).stats().data_pages_read, 4u);
  }
  EXPECT_EQ(pool.TotalTouchedPages(), 7u);
}

}  // namespace
}  // namespace parsim
