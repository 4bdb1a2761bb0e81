#include "arch/lwp.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pimsim::arch {

Lwp::Lwp(des::Simulation& sim, const SystemParams& params, Rng rng,
         std::uint64_t batch_ops, const mem::MemorySystem* memory,
         std::size_t node)
    : sim_(sim), params_(params), rng_(rng), batch_ops_(batch_ops),
      memory_(memory), node_(node) {
  params_.validate();
  require(batch_ops > 0, "Lwp: batch_ops must be positive");
}

des::Process Lwp::run(std::uint64_t ops) {
  return memory_ != nullptr && memory_->contended() ? run_contended(ops)
                                                    : run_batched(ops);
}

des::Process Lwp::run_batched(std::uint64_t ops) {
  std::uint64_t remaining = ops;
  while (remaining > 0) {
    const std::uint64_t batch = std::min(remaining, batch_ops_);
    remaining -= batch;

    const std::uint64_t mem = rng_.binomial(batch, params_.ls_mix);
    const double cycles = static_cast<double>(batch - mem) * params_.tl_cycle +
                          static_cast<double>(mem) * row_latency();
    co_await des::delay(sim_, cycles);

    counts_.ops += batch;
    counts_.mem_ops += mem;
    counts_.busy_cycles += cycles;
  }
}

des::Process Lwp::run_contended(std::uint64_t ops) {
  // Per-access path: compute runs are still aggregated (they cannot
  // conflict), but each memory access is issued through the seam, where
  // it queues at its home bank behind other accessors.  Each run() walks
  // the node's address stream from its start.
  mem::AddressStream addrs(node_);
  const GeometricSampler gap_sampler(params_.ls_mix);
  std::uint64_t remaining = ops;
  while (remaining > 0) {
    // Length of the compute run until the next memory access.
    const std::uint64_t gap = gap_sampler(rng_);
    const std::uint64_t compute = std::min(gap, remaining);
    if (compute > 0) {
      co_await des::delay(sim_, static_cast<double>(compute) * params_.tl_cycle);
      counts_.ops += compute;
      counts_.busy_cycles += static_cast<double>(compute) * params_.tl_cycle;
      remaining -= compute;
    }
    if (remaining == 0) break;

    const SimTime start = sim_.now();
    co_await mem::AccessAwaitable{*memory_, sim_, node_, addrs.next(),
                                  mem::AccessKind::kLwpRow};
    counts_.ops += 1;
    counts_.mem_ops += 1;
    counts_.busy_cycles += sim_.now() - start;  // includes bank queueing
    remaining -= 1;
  }
}

}  // namespace pimsim::arch
