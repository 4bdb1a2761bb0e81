#include "arch/mtlwp.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "workload/workload.hpp"

namespace pimsim::arch {

MultithreadedLwp::MultithreadedLwp(des::Simulation& sim,
                                   const SystemParams& params, Rng rng,
                                   std::size_t threads, double switch_cost)
    : sim_(sim), params_(params), rng_(rng), threads_(threads),
      switch_cost_(switch_cost), pipeline_(sim, 1, "mtlwp.pipeline") {
  params_.validate();
  require(threads >= 1, "MultithreadedLwp: need at least one thread");
  require(switch_cost >= 0.0,
          "MultithreadedLwp: switch cost must be non-negative");
  require(params_.ls_mix > 0.0,
          "MultithreadedLwp: multithreading needs memory accesses (mix > 0)");
}

des::Process MultithreadedLwp::run(std::uint64_t ops) {
  const auto shares = wl::split_evenly(ops, threads_);
  auto latch = std::make_unique<des::CountdownLatch>(sim_, threads_);
  for (std::size_t t = 0; t < threads_; ++t) {
    sim_.spawn(thread_body(shares[t], rng_.split(7000 + t), *latch));
  }
  co_await latch->wait();
}

des::Process MultithreadedLwp::thread_body(std::uint64_t ops, Rng rng,
                                           des::CountdownLatch& done) {
  const GeometricSampler gap_sampler(params_.ls_mix);
  std::uint64_t remaining = ops;
  while (remaining > 0) {
    co_await pipeline_.acquire();
    if (threads_ >= 2 && switch_cost_ > 0.0) {
      co_await des::delay(sim_, switch_cost_);
      counts_.busy_cycles += switch_cost_;
    }
    // Compute run until the next memory access (geometric in the mix).
    const std::uint64_t gap =
        std::min(gap_sampler(rng), remaining > 0 ? remaining - 1 : 0);
    if (gap > 0) {
      const double cycles = static_cast<double>(gap) * params_.tl_cycle;
      co_await des::delay(sim_, cycles);
      counts_.ops += gap;
      counts_.busy_cycles += cycles;
      remaining -= gap;
    }
    // The access itself: issue, then stall *off* the pipeline so other
    // threads can run (the row-buffer access is overlappable).
    pipeline_.release();
    co_await des::delay(sim_, params_.t_ml);
    counts_.ops += 1;
    counts_.mem_ops += 1;
    remaining -= 1;
  }
  done.count_down();
}

}  // namespace pimsim::arch
