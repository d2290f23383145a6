#include "src/util/thread_pool.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

namespace parsim {
namespace {

TEST(ThreadPoolTest, ParallelForRunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(0, kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ParallelForHonorsNonZeroBegin) {
  ThreadPool pool(2);
  std::atomic<std::size_t> sum{0};
  pool.ParallelFor(100, 200, [&](std::size_t i) { sum.fetch_add(i); });
  // sum of 100..199
  EXPECT_EQ(sum.load(), (100u + 199u) * 100u / 2u);
}

TEST(ThreadPoolTest, ParallelForEmptyAndSingletonRanges) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  pool.ParallelFor(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPoolTest, ParallelForPropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(0, 1000,
                                [](std::size_t i) {
                                  if (i == 137) {
                                    throw std::runtime_error("body failed");
                                  }
                                }),
               std::runtime_error);
  // The pool must remain usable after a failed loop.
  std::atomic<int> ok{0};
  pool.ParallelFor(0, 10, [&](std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 10);
}

TEST(ThreadPoolTest, ReusableAcrossManyBatches) {
  ThreadPool pool(3);
  for (int batch = 0; batch < 50; ++batch) {
    std::atomic<std::size_t> sum{0};
    pool.ParallelFor(0, 64, [&](std::size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 64u * 63u / 2u);
  }
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  // The caller of ParallelFor always participates in the loop, so a body
  // that itself calls ParallelFor on the same pool makes progress even
  // when every worker is occupied by outer iterations.
  ThreadPool pool(2);
  std::atomic<std::size_t> total{0};
  pool.ParallelFor(0, 8, [&](std::size_t) {
    pool.ParallelFor(0, 16, [&](std::size_t j) { total.fetch_add(j); });
  });
  EXPECT_EQ(total.load(), 8u * (16u * 15u / 2u));
}

TEST(ThreadPoolTest, ZeroRequestedThreadsStillWorks) {
  // 0 means "hardware concurrency", clamped to at least one worker.
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 32, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 32);
}

}  // namespace
}  // namespace parsim
