// SweepRunner: parallel correctness and edge cases of for_each.  The
// figures' determinism across thread counts is pinned end to end in
// test_scenario.cpp (registry vs direct generator at any sweep_threads).
#include "core/sweep.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <vector>

#include "common/error.hpp"

namespace pimsim::core {
namespace {

TEST(SweepRunner, ResolvesThreadCounts) {
  EXPECT_GE(SweepRunner(0).threads(), 1u);  // 0 = hardware concurrency
  EXPECT_EQ(SweepRunner(1).threads(), 1u);
  EXPECT_EQ(SweepRunner(4).threads(), 4u);
}

TEST(SweepRunner, ForEachVisitsEveryIndexExactlyOnce) {
  SweepRunner runner(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> visits(kCount);
  runner.for_each(kCount, [&](std::size_t i) {
    visits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(visits[i].load(), 1) << "index " << i;
  }
}

TEST(SweepRunner, ForEachHandlesEmptyAndSingleton) {
  SweepRunner runner(4);
  std::atomic<int> calls{0};
  runner.for_each(0, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  runner.for_each(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(SweepRunner, ForEachIsReusableAcrossBatches) {
  SweepRunner runner(3);
  for (int round = 0; round < 20; ++round) {
    std::atomic<std::size_t> sum{0};
    runner.for_each(round % 7 + 1, [&](std::size_t i) {
      sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    const std::size_t n = static_cast<std::size_t>(round % 7) + 1;
    EXPECT_EQ(sum.load(), n * (n + 1) / 2);
  }
}

TEST(SweepRunner, ForEachPropagatesExceptions) {
  SweepRunner runner(4);
  EXPECT_THROW(
      runner.for_each(100,
                      [](std::size_t i) {
                        if (i == 37) throw ConfigError("boom at 37");
                      }),
      ConfigError);
  // The pool must survive a failed batch.
  std::atomic<int> calls{0};
  runner.for_each(10, [&](std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 10);
}

TEST(SweepRunner, ForEachRejectsEmptyBody) {
  SweepRunner runner(2);
  EXPECT_THROW(runner.for_each(3, std::function<void(std::size_t)>{}),
               ConfigError);
}

}  // namespace
}  // namespace pimsim::core
