// A thread-safe, sharded page-buffer pool: one mutex-guarded LRU shard
// per simulated disk, shared by all concurrent queries.
//
// Why sharded: the page buffer is the single piece of shared state a
// captured (concurrent) read still mutates — an LRU is history-dependent
// by design. One global lock would re-serialize the whole query batch;
// one lock per shard means queries only contend when they touch the same
// simulated disk at the same instant. Touch() is the batched per-node
// call: a leaf or supernode is one (key, pages) run, so a query takes
// each shard lock exactly once per node it reads, never per page.
//
// Accounting contract. Which individual touch hits or misses depends on
// the interleaving (that IS the LRU), but the *aggregate* is exact under
// any schedule: every touched page is counted as exactly one hit or one
// miss, so per-shard hit_pages + miss_pages equals the pages touched on
// that shard — a deterministic quantity of the workload. A caller that
// needs reproducible per-query numbers runs its batch on one thread
// (QueryBatch with threads = 1); the pool itself is always safe to
// hammer from any number of threads.

#ifndef PARSIM_SRC_IO_BUFFER_POOL_H_
#define PARSIM_SRC_IO_BUFFER_POOL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "src/util/lru_cache.h"

namespace parsim {

/// A fixed array of independently locked LRU page-buffer shards. Shard i
/// buffers the pages of simulated disk i (the engine gives the query
/// host the last shard).
class BufferPool {
 public:
  /// Creates `num_shards` shards (>= 1) of `pages_per_shard` pages each.
  /// A capacity of 0 makes every Touch miss (buffering disabled).
  BufferPool(std::size_t num_shards, std::uint64_t pages_per_shard);

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  std::size_t num_shards() const { return shards_.size(); }
  std::uint64_t pages_per_shard() const { return pages_per_shard_; }

  /// Looks up the block `key` (a node id) of `pages` pages on `shard`;
  /// promotes/admits it LRU-style and returns true iff it was resident.
  /// Thread-safe; takes the shard's lock once for the whole run.
  bool Touch(std::size_t shard, std::uint64_t key, std::uint64_t pages);

  /// True iff `key` is resident on `shard` (no promotion). Thread-safe.
  bool Contains(std::size_t shard, std::uint64_t key) const;

  /// Resident weight of one shard, in pages. Thread-safe.
  std::uint64_t ShardWeight(std::size_t shard) const;

  /// Aggregate counters over all shards since construction (or the last
  /// Clear). Exact under any interleaving: TotalHitPages() +
  /// TotalMissPages() == TotalTouchedPages() always.
  std::uint64_t TotalHitPages() const;
  std::uint64_t TotalMissPages() const;
  std::uint64_t TotalTouchedPages() const;

  /// Per-shard touched pages (hits + misses): deterministic for a fixed
  /// workload, independent of thread count and query order.
  std::vector<std::uint64_t> TouchedPagesPerShard() const;

  /// Drops every shard's contents and counters (cold buffers).
  void Clear();

 private:
  struct Shard {
    explicit Shard(std::uint64_t capacity) : lru(capacity) {}
    mutable std::mutex mutex;
    LruCache<std::uint64_t> lru;
    std::uint64_t hit_pages = 0;
    std::uint64_t miss_pages = 0;
  };

  Shard& shard(std::size_t index) const;

  // unique_ptr keeps shard addresses (and their mutexes) stable.
  std::vector<std::unique_ptr<Shard>> shards_;
  std::uint64_t pages_per_shard_;
};

}  // namespace parsim

#endif  // PARSIM_SRC_IO_BUFFER_POOL_H_
