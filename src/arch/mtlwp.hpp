// Discrete-event model of a multithreaded LWP node: K hardware thread
// contexts share one LWP pipeline; a thread's row-buffer access (TML)
// overlaps with other threads' compute, hiding local memory latency the
// way parcels hide network latency (paper Section 5.2, after [27]).
//
// This is the simulation counterpart of analytic/multithreading.hpp; the
// test suite checks the two against each other in the linear and
// saturated regimes.
#pragma once

#include <cstdint>
#include <memory>

#include "arch/hwp.hpp"
#include "arch/params.hpp"
#include "common/rng.hpp"
#include "des/process.hpp"
#include "des/resource.hpp"
#include "des/simulation.hpp"

namespace pimsim::arch {

class MultithreadedLwp {
 public:
  /// A node with `threads` contexts; switching costs `switch_cost` HWP
  /// cycles whenever a different context takes the pipeline (K >= 2).
  /// The off-pipeline row-buffer stall is the Table 1 TML constant, as
  /// the paper assumes (no bank conflicts).
  MultithreadedLwp(des::Simulation& sim, const SystemParams& params, Rng rng,
                   std::size_t threads, double switch_cost);

  /// Coroutine that executes `ops` operations split evenly across the
  /// node's thread contexts; completes when the slowest thread finishes.
  [[nodiscard]] des::Process run(std::uint64_t ops);

  [[nodiscard]] const OpCounts& counts() const { return counts_; }
  [[nodiscard]] std::size_t threads() const { return threads_; }
  /// Pipeline busy fraction (switch cycles count as busy).
  [[nodiscard]] double utilization() const { return pipeline_.utilization(); }

 private:
  des::Process thread_body(std::uint64_t ops, Rng rng,
                           des::CountdownLatch& done);

  des::Simulation& sim_;
  SystemParams params_;
  Rng rng_;
  std::size_t threads_;
  double switch_cost_;
  des::Resource pipeline_;
  OpCounts counts_;
};

}  // namespace pimsim::arch
