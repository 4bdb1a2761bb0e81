// The paper's Section 4 experiment: a *test* system of parcel-driven
// split-transaction nodes versus a *control* system of conventional
// blocking message-passing nodes (Figure 10), over the same interconnect
// and the same workload statistics.
//
// The two systems share one skeleton (system.cpp): the same node (mailbox,
// one single-server station, NIC, RNG, stats, address stream), the same
// request and reply message path, the same memory seam and observability
// hooks.  They differ only in their node programs — the control node
// blocks its one thread on a remote access; the test node splits the
// transaction, yields the processor and runs another parcel context.
//
// Both node models run three states the paper defines:
//   - performing useful operations (1 op per cycle),
//   - performing local memory access,
//   - idle: waiting for a reply (control) or out of ready parcels (test).
//
// Work is counted as useful operations plus memory accesses completed,
// attributed to the node that services them; both systems run for the
// same simulated horizon and the Figure 11 metric is the ratio of the
// totals.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.hpp"
#include "memory/memory_system.hpp"
#include "parcel/network.hpp"

namespace pimsim::parcel {

/// Independent parameters of the split-transaction study.
///
/// Table 1 pins ls_mix; the remaining service costs are reconstructed
/// (the paper does not publish them) and exposed here — see DESIGN.md §6.
struct SplitTransactionParams {
  std::size_t nodes = 16;        ///< system size (paper sweeps 1..256)
  double ls_mix = 0.30;          ///< fraction of ops that access memory
  double p_remote = 0.10;        ///< fraction of accesses that are remote
  Cycles t_local = 10.0;         ///< local memory access service time
  Cycles t_switch = 2.0;         ///< parcel context-switch overhead (test)
  Cycles t_send = 1.0;           ///< processor cost to compose a request
  std::size_t parallelism = 4;   ///< parcel contexts per node (test system)
  Cycles round_trip_latency = 100.0;  ///< the swept system-wide latency L
  double horizon = 50'000.0;     ///< simulated cycles per run
  std::uint64_t seed = 1;
  std::string network = "flat";  ///< flat | ring | mesh2d | torus (ablation)

  /// Injection serialization (bandwidth ablation): every message a node
  /// sends occupies its network interface for this many cycles before
  /// entering the (otherwise contention-free) network.  0 reproduces the
  /// paper's infinite-bandwidth assumption.
  Cycles nic_gap = 0.0;

  /// The contention knob: false runs the analytic (closed-form latency)
  /// interconnect the paper assumes; true replaces it with the
  /// packet-level model (interconnect/contention.hpp) of the same
  /// topology, calibrated to the same zero-load latencies, so link and
  /// router contention shows up in every figure that sweeps `network`.
  bool contention = false;

  /// Wire size of one request/reply message; only the packet-level model
  /// reads it (flit segmentation).  The analytic models are
  /// byte-size-independent, matching the paper.
  std::size_t message_bytes = 16;

  /// The memory seam, mirroring `contention`/`network` above: "analytic"
  /// charges t_local as a constant delay (the paper's assumption, and the
  /// bitwise-identical default); "banked" routes every local access —
  /// a node's own and those it serves for others — through the banked
  /// DRAM backend calibrated so its zero-load latency equals t_local.
  std::string memory = "analytic";
  std::size_t mem_banks = 0;  ///< banked: DRAM banks (0 = one per node)
  std::size_t mem_queue = 0;  ///< banked: shared ports (0 = one per bank)

  void validate() const;
};

/// Per-node accounting over one run.
struct NodeStats {
  double useful_cycles = 0.0;    ///< state 1: executing operations
  double mem_cycles = 0.0;       ///< state 2: local memory access
  double overhead_cycles = 0.0;  ///< context switches + request composition
  double idle_cycles = 0.0;      ///< state 3: blocked / no ready parcel
  std::uint64_t compute_ops = 0;
  std::uint64_t local_accesses = 0;   ///< own accesses serviced locally
  std::uint64_t remote_requests = 0;  ///< requests/parcels sent elsewhere
  std::uint64_t accesses_served = 0;  ///< accesses serviced for other nodes

  /// The paper's work metric: useful ops + memory accesses completed here.
  [[nodiscard]] double work() const {
    return static_cast<double>(compute_ops + local_accesses + accesses_served);
  }
};

/// Outcome of one system run.
struct SystemRunResult {
  double horizon = 0.0;
  std::vector<NodeStats> nodes;

  [[nodiscard]] double total_work() const;
  /// Mean over nodes of idle_cycles / horizon.
  [[nodiscard]] double mean_idle_fraction() const;
  /// Mean over nodes of overhead_cycles / horizon.
  [[nodiscard]] double mean_overhead_fraction() const;
};

/// Runs the parcel-driven split-transaction (test) system.
/// `net` overrides the interconnect; by default one is built from
/// params.network and params.round_trip_latency.  `memory` overrides the
/// memory model; by default one is built from params.memory (nullptr —
/// meaning the unchanged constant-t_local path — when it is "analytic").
[[nodiscard]] SystemRunResult run_split_transaction_system(
    const SplitTransactionParams& params, const Interconnect* net = nullptr,
    const mem::MemorySystem* memory = nullptr);

/// Runs the blocking message-passing (control) system. The control system
/// ignores `parallelism` and `t_switch` (one thread per node, no switching).
[[nodiscard]] SystemRunResult run_message_passing_system(
    const SplitTransactionParams& params, const Interconnect* net = nullptr,
    const mem::MemorySystem* memory = nullptr);

/// One Figure 11/12 point: both systems under identical parameters.
struct ComparisonPoint {
  double work_ratio = 0.0;      ///< test work / control work (Figure 11 y-axis)
  double test_idle = 0.0;       ///< mean idle fraction, test system
  double control_idle = 0.0;    ///< mean idle fraction, control system
  double test_work = 0.0;
  double control_work = 0.0;
};

[[nodiscard]] ComparisonPoint compare_systems(const SplitTransactionParams& params);

}  // namespace pimsim::parcel
