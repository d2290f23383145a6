#include "src/util/lru_cache.h"

#include <gtest/gtest.h>

#include "src/io/buffer_pool.h"
#include "src/io/disk.h"

namespace parsim {
namespace {

TEST(LruCacheTest, MissThenHit) {
  LruCache<int> cache(4);
  EXPECT_FALSE(cache.Touch(1));
  EXPECT_TRUE(cache.Touch(1));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.weight(), 1u);
}

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int> cache(3);
  cache.Touch(1);
  cache.Touch(2);
  cache.Touch(3);
  cache.Touch(4);  // evicts 1
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(3));
  EXPECT_TRUE(cache.Contains(4));
}

TEST(LruCacheTest, TouchPromotes) {
  LruCache<int> cache(3);
  cache.Touch(1);
  cache.Touch(2);
  cache.Touch(3);
  cache.Touch(1);  // 1 is now MRU; 2 is LRU
  cache.Touch(4);  // evicts 2
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
}

TEST(LruCacheTest, WeightedEntries) {
  LruCache<int> cache(10);
  cache.Touch(1, 4);
  cache.Touch(2, 4);
  EXPECT_EQ(cache.weight(), 8u);
  cache.Touch(3, 4);  // 12 > 10: evicts 1
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_EQ(cache.weight(), 8u);
}

TEST(LruCacheTest, ResidentWeightGrowthUpdatesAndEvicts) {
  // Regression: Touch used to ignore entry_weight on a resident key, so
  // a supernode that grew between visits kept its stale (smaller) weight
  // and the cache over-admitted past capacity.
  LruCache<int> cache(10);
  cache.Touch(1, 2);
  cache.Touch(2, 4);
  EXPECT_EQ(cache.weight(), 6u);
  EXPECT_TRUE(cache.Touch(1, 6));  // key 1 grew 2 -> 6: still a hit
  EXPECT_EQ(cache.weight(), 10u);
  cache.Touch(3, 4);  // 10 + 4 > 10: evicts LRU key 2
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_LE(cache.weight(), 10u);
}

TEST(LruCacheTest, ResidentWeightGrowthCanEvictOthersImmediately) {
  LruCache<int> cache(8);
  cache.Touch(1, 4);
  cache.Touch(2, 4);
  EXPECT_TRUE(cache.Touch(1, 8));  // grown to full capacity: 2 must go
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(2));
  EXPECT_EQ(cache.weight(), 8u);
}

TEST(LruCacheTest, ResidentWeightShrinkFreesSpace) {
  LruCache<int> cache(10);
  cache.Touch(1, 8);
  EXPECT_TRUE(cache.Touch(1, 2));  // shrank 8 -> 2
  EXPECT_EQ(cache.weight(), 2u);
  cache.Touch(2, 8);  // now fits without evicting 1
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2));
  EXPECT_EQ(cache.weight(), 10u);
}

TEST(LruCacheTest, ResidentEntryGrownBeyondCapacityIsDropped) {
  LruCache<int> cache(4);
  cache.Touch(1, 2);
  cache.Touch(2, 1);
  // Key 1 regrown past the whole capacity: uncacheable, dropped, and
  // reported as a miss — same policy as a fresh oversized insert.
  EXPECT_FALSE(cache.Touch(1, 5));
  EXPECT_FALSE(cache.Contains(1));
  EXPECT_TRUE(cache.Contains(2)) << "dropping 1 must not evict others";
  EXPECT_EQ(cache.weight(), 1u);
}

TEST(LruCacheTest, WeightChurnKeepsWeightConsistent) {
  LruCache<std::uint64_t> cache(16);
  for (std::uint64_t i = 0; i < 2000; ++i) {
    // Same keys recur with different weights, exercising the resident
    // weight-update path continuously.
    cache.Touch(i % 11, 1 + (i * 7) % 5);
    EXPECT_LE(cache.weight(), 16u);
  }
  // Cross-check the cached weight against a fresh sum over entries by
  // shrinking everything to weight 1: size() entries of weight 1 each.
  const std::size_t entries = cache.size();
  for (std::uint64_t key = 0; key < 11; ++key) {
    if (cache.Contains(key)) cache.Touch(key, 1);
  }
  EXPECT_EQ(cache.size(), entries);
  EXPECT_EQ(cache.weight(), entries);
}

TEST(LruCacheTest, OversizedEntryNotCached) {
  LruCache<int> cache(3);
  cache.Touch(1);
  EXPECT_FALSE(cache.Touch(99, 5));
  EXPECT_FALSE(cache.Contains(99));
  EXPECT_TRUE(cache.Contains(1)) << "oversized entry must not evict";
}

TEST(LruCacheTest, ZeroCapacityAlwaysMisses) {
  LruCache<int> cache(0);
  EXPECT_FALSE(cache.Touch(1));
  EXPECT_FALSE(cache.Touch(1));
  EXPECT_EQ(cache.size(), 0u);
}

TEST(LruCacheTest, ClearEmpties) {
  LruCache<int> cache(5);
  cache.Touch(1);
  cache.Touch(2, 2);
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.weight(), 0u);
  EXPECT_FALSE(cache.Touch(1));
}

TEST(LruCacheTest, HeavyChurnStaysWithinCapacity) {
  LruCache<std::uint64_t> cache(16);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    cache.Touch(i % 37, 1 + i % 3);
    EXPECT_LE(cache.weight(), 16u);
  }
}

TEST(BufferedDiskTest, HitsAreFreeAndCounted) {
  BufferPool pool(/*num_shards=*/1, /*pages_per_shard=*/8);
  SimulatedDisk disk(0);
  disk.AttachBufferPool(&pool, 0);
  disk.ReadDataPagesBuffered(/*key=*/1, 1);  // miss
  disk.ReadDataPagesBuffered(/*key=*/1, 1);  // hit
  disk.ReadDataPagesBuffered(/*key=*/1, 1);  // hit
  EXPECT_EQ(disk.stats().data_pages_read, 1u);
  EXPECT_EQ(disk.stats().buffer_hit_pages, 2u);
}

TEST(BufferedDiskTest, NoBufferMeansEveryReadCharges) {
  SimulatedDisk disk(0);
  disk.ReadDataPagesBuffered(1, 1);
  disk.ReadDataPagesBuffered(1, 1);
  EXPECT_EQ(disk.stats().data_pages_read, 2u);
  EXPECT_EQ(disk.stats().buffer_hit_pages, 0u);
}

TEST(BufferedDiskTest, BufferSurvivesStatReset) {
  BufferPool pool(/*num_shards=*/1, /*pages_per_shard=*/8);
  SimulatedDisk disk(0);
  disk.AttachBufferPool(&pool, 0);
  disk.ReadDirectoryPagesBuffered(7, 1);  // miss, resident now
  disk.ResetStats();
  disk.ReadDirectoryPagesBuffered(7, 1);  // still a hit
  EXPECT_EQ(disk.stats().directory_pages_read, 0u);
  EXPECT_EQ(disk.stats().buffer_hit_pages, 1u);
}

TEST(BufferedDiskTest, SupernodeWeight) {
  BufferPool pool(/*num_shards=*/1, /*pages_per_shard=*/4);
  SimulatedDisk disk(0);
  disk.AttachBufferPool(&pool, 0);
  disk.ReadDataPagesBuffered(1, 3);  // miss: 3 pages
  disk.ReadDataPagesBuffered(2, 3);  // miss: evicts key 1 (3+3 > 4)
  disk.ReadDataPagesBuffered(1, 3);  // miss again
  EXPECT_EQ(disk.stats().data_pages_read, 9u);
}

}  // namespace
}  // namespace parsim
