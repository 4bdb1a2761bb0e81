#include "arch/hwp.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace pimsim::arch {

Hwp::Hwp(des::Simulation& sim, const SystemParams& params, Rng rng,
         std::uint64_t batch_ops, const mem::MemorySystem* memory)
    : sim_(sim), params_(params), rng_(rng), batch_ops_(batch_ops),
      memory_(memory) {
  params_.validate();
  require(batch_ops > 0, "Hwp: batch_ops must be positive");
}

des::Process Hwp::run(std::uint64_t ops) {
  std::uint64_t remaining = ops;
  while (remaining > 0) {
    const std::uint64_t batch = std::min(remaining, batch_ops_);
    remaining -= batch;

    const std::uint64_t mem = rng_.binomial(batch, params_.ls_mix);
    const std::uint64_t misses = rng_.binomial(mem, params_.p_miss);
    // Non-memory ops issue in 1 cycle; memory ops pay the cache access and,
    // on a miss, additionally the main-memory access.
    const double cycles = static_cast<double>(batch - mem) +
                          static_cast<double>(mem) * params_.t_ch +
                          static_cast<double>(misses) * miss_penalty();
    co_await des::delay(sim_, cycles);

    counts_.ops += batch;
    counts_.mem_ops += mem;
    counts_.misses += misses;
    counts_.busy_cycles += cycles;
  }
}

des::Process Hwp::run_trace(std::uint64_t ops, wl::AccessPattern& pattern,
                            mem::SetAssocCache& cache) {
  const GeometricSampler gap_sampler(params_.ls_mix);
  std::uint64_t remaining = ops;
  while (remaining > 0) {
    // Compute run until the next load/store (geometric in the mix), then
    // one access resolved against the structural cache.
    const std::uint64_t gap =
        std::min(gap_sampler(rng_), remaining > 0 ? remaining - 1 : 0);
    double cycles = static_cast<double>(gap);
    const bool miss =
        cache.access(pattern.next()) == mem::CacheOutcome::kMiss;
    cycles += params_.t_ch + (miss ? miss_penalty() : 0.0);
    co_await des::delay(sim_, cycles);
    counts_.ops += gap + 1;
    counts_.mem_ops += 1;
    counts_.misses += miss ? 1 : 0;
    counts_.busy_cycles += cycles;
    remaining -= gap + 1;
  }
}

double Hwp::observed_miss_rate() const {
  return counts_.mem_ops == 0 ? 0.0
                              : static_cast<double>(counts_.misses) /
                                    static_cast<double>(counts_.mem_ops);
}

}  // namespace pimsim::arch
