// Heap-allocation guard for the Figure 10 request path.
//
// This binary replaces the global operator new with a counting one, so
// it can assert that a steady-state request allocates nothing: process
// frames come from the per-thread frame pool, a one-waiter trigger keeps
// its waiter inline, and the request message lambda fits std::function's
// inline buffer.  Setup (nodes, names, calendar growth) is paid once per
// run, so the guard takes the difference between a run and one four times
// as long, both after a first run has filled the frame pool.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "parcel/system.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};
}  // namespace

// Kept out of line: once inlined, GCC's -Wmismatched-new-delete flags
// the free() of a block that came from operator new.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* block = std::malloc(size == 0 ? 1 : size)) return block;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  return ::operator new(size);
}
[[gnu::noinline]] void operator delete(void* block) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete[](void* block) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete(void* block, std::size_t) noexcept {
  std::free(block);
}
[[gnu::noinline]] void operator delete[](void* block, std::size_t) noexcept {
  std::free(block);
}

namespace pimsim::parcel {
namespace {

struct Tally {
  std::uint64_t allocations = 0;
  std::uint64_t requests = 0;  ///< requests served at their home node
};

template <typename RunSystem>
Tally tally(RunSystem run, double horizon) {
  SplitTransactionParams p;
  p.nodes = 16;
  p.parallelism = 4;
  p.p_remote = 0.2;
  p.horizon = horizon;
  p.nic_gap = 0.0;
  p.memory = "analytic";
  const std::uint64_t before = g_allocations.load();
  const SystemRunResult result = run(p);
  Tally t;
  t.allocations = g_allocations.load() - before;
  for (const NodeStats& n : result.nodes) t.requests += n.accesses_served;
  return t;
}

template <typename RunSystem>
void expect_allocation_free_requests(RunSystem run) {
  (void)tally(run, 100'000.0);  // warms this thread's frame pool
  const Tally shorter = tally(run, 100'000.0);
  const Tally longer = tally(run, 400'000.0);
  const auto requests =
      static_cast<std::int64_t>(longer.requests - shorter.requests);
  const auto allocations = static_cast<std::int64_t>(longer.allocations) -
                           static_cast<std::int64_t>(shorter.allocations);
  ASSERT_GT(requests, 10'000);
  // Fewer than 1 allocation per 1,000 requests in steady state.
  EXPECT_LT(allocations * 1000, requests)
      << allocations << " allocations for " << requests << " requests";
}

TEST(AllocationGuard, TestSystemRequestsDoNotAllocate) {
  expect_allocation_free_requests([](const SplitTransactionParams& p) {
    return run_split_transaction_system(p);
  });
}

TEST(AllocationGuard, ControlSystemRequestsDoNotAllocate) {
  expect_allocation_free_requests([](const SplitTransactionParams& p) {
    return run_message_passing_system(p);
  });
}

}  // namespace
}  // namespace pimsim::parcel
