// The memory seam: every architecture-model memory access goes through a
// mem::MemorySystem, the memory-side analogue of the parcel layer's
// Interconnect::deliver() seam.
//
// Two implementations ship behind it:
//
//  * AnalyticMemory — the paper's closed-form model.  An access completes
//    after exactly the Table 1 constant for its kind (TML for an LWP
//    row-buffer access, TMH for an HWP cache miss), with no state and no
//    queueing.  This is the default, and it reproduces the pre-seam
//    figures bitwise: the constants are carried as the same doubles that
//    arch::SystemParams holds, so every charged delay is the identical
//    value the models used to inline.
//
//  * ContentionMemory (contention_memory.hpp) — a DES banked open-row
//    DRAM model with per-bank FIFO queues and shared-port arbitration.
//    Its *uncontended* per-access latency equals the analytic constants
//    (the zero-load degeneracy guarantee), so contention appears only as
//    queueing delay — exactly how make_contention_interconnect calibrates
//    the packet network against the analytic latency models.
//
// The interface is completion-event based, not coroutine based, so the
// contended backend can run allocation-free on the kernel's static-call
// event path; coroutine code awaits an access via AccessAwaitable.
#pragma once

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "common/units.hpp"
#include "des/event_action.hpp"
#include "des/simulation.hpp"
#include "memory/dram.hpp"

namespace pimsim::mem {

/// What kind of access is being charged — selects which Table 1 constant
/// the zero-load latency degenerates to.
enum class AccessKind : std::uint8_t {
  kLwpRow = 0,   ///< LWP load/store against its row buffer (TML)
  kHwpMiss = 1,  ///< HWP cache miss to main memory (TMH)
};

/// Configuration shared by every MemorySystem implementation.  The
/// latency constants are *copied from* arch::SystemParams (t_ml / t_mh)
/// by the host system, so the seam charges bit-identical doubles.
struct MemoryConfig {
  std::string kind = "analytic";  ///< analytic | banked
  Cycles lwp_row_cycles = 30.0;   ///< zero-load latency of kLwpRow (TML)
  Cycles hwp_miss_cycles = 90.0;  ///< zero-load latency of kHwpMiss (TMH)
  std::size_t nodes = 1;          ///< accessor nodes sharing the memory

  /// Banked backend: number of DRAM banks.  0 means one bank per node
  /// (the paper's layout — each LWP sits next to its own macro); fewer
  /// banks than nodes makes consecutive node groups share one bank,
  /// reproducing the bank-conflict ablation's lwps_per_bank grouping.
  std::size_t banks = 0;

  /// Banked backend: shared access ports across all banks.  0 means one
  /// port per bank (no cross-bank arbitration); smaller values model a
  /// shared memory port that serializes otherwise-independent banks.
  std::size_t queue = 0;

  DramMacroSpec spec{};  ///< geometry for row mapping / open-row stats

  void validate() const;

  /// Banks after resolving the 0 default (one per node).
  [[nodiscard]] std::size_t resolved_banks() const;
  /// Simultaneous accesses in service after resolving the 0 default.
  [[nodiscard]] std::size_t resolved_ports() const;
};

/// Abstract memory model.  access() is the seam: it schedules `done(ctx,
/// a, b)` into `sim` at the (model-dependent) time the access retires.
/// The default implementation is the analytic model: completion at
/// now + zero_load_latency(kind), one static-call event, no state.
class MemorySystem {
 public:
  virtual ~MemorySystem() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// True when accesses can queue (so callers must issue them
  /// individually); false means latencies are closed-form constants and
  /// callers may batch-charge zero_load_latency() directly.
  [[nodiscard]] virtual bool contended() const { return false; }

  /// Latency of an uncontended access of `kind` — the analytic constant
  /// every backend degenerates to at zero load.
  [[nodiscard]] virtual Cycles zero_load_latency(AccessKind kind) const = 0;

  /// Issues one access from `node` at byte address `addr`; `done` fires
  /// when it retires.  Deterministic: same issue order, same completions.
  virtual void access(des::Simulation& sim, std::size_t node,
                      std::uint64_t addr, AccessKind kind, bool is_write,
                      des::EventAction::StaticFn done, void* ctx,
                      std::uint64_t a, std::uint64_t b) const;

  // Stream statistics (banked backend; the analytic model keeps none).
  [[nodiscard]] virtual std::uint64_t accesses() const { return 0; }
  [[nodiscard]] virtual double row_hit_rate() const { return 0.0; }

  /// Publishes end-of-run statistics into a metrics registry (see
  /// src/obs/metrics.hpp).  Harnesses call this after the run, guarded by
  /// Simulation::metrics_enabled(); the default backend publishes nothing.
  virtual void collect_metrics(obs::MetricsRegistry& registry) const {
    (void)registry;
  }
};

/// The paper's model behind the seam: constant latency per access kind,
/// no queueing, no state.
class AnalyticMemory final : public MemorySystem {
 public:
  explicit AnalyticMemory(const MemoryConfig& config);

  [[nodiscard]] const char* name() const override { return "analytic"; }
  [[nodiscard]] Cycles zero_load_latency(AccessKind kind) const override;

 private:
  Cycles lwp_row_cycles_;
  Cycles hwp_miss_cycles_;
};

/// A node's address stream on a banked backend: node `n` owns the 2^32-byte
/// region starting at n * 2^32 and walks it one 32-byte wide word
/// (DramMacroSpec::word_bits / 8) at a time, so consecutive accesses walk
/// the row buffer and the bank mapping is a deterministic function of the
/// node id.  Callers own the cursor's lifetime.
class AddressStream {
 public:
  explicit AddressStream(std::size_t node)
      : next_(static_cast<std::uint64_t>(node) * kRegionBytes) {}

  /// Returns the next address and advances one wide word.
  [[nodiscard]] std::uint64_t next() {
    const std::uint64_t addr = next_;
    next_ += kStrideBytes;
    return addr;
  }

 private:
  static constexpr std::uint64_t kStrideBytes = 32;
  static constexpr std::uint64_t kRegionBytes = std::uint64_t{1} << 32;
  std::uint64_t next_;
};

/// Awaitable bridging coroutine code onto the completion-event seam:
///
///   co_await mem::AccessAwaitable{memory, sim, node, addr,
///                                 mem::AccessKind::kLwpRow};
///
/// suspends the coroutine and resumes it when the access retires.
struct AccessAwaitable {
  const MemorySystem& memory;
  des::Simulation& sim;
  std::size_t node = 0;
  std::uint64_t addr = 0;
  AccessKind kind = AccessKind::kLwpRow;
  bool is_write = false;

  [[nodiscard]] bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    memory.access(sim, node, addr, kind, is_write, &resume_handle,
                  h.address(), 0, 0);
  }
  void await_resume() const noexcept {}

  static void resume_handle(void* ctx, std::uint64_t /*a*/,
                            std::uint64_t /*b*/) {
    std::coroutine_handle<>::from_address(ctx).resume();
  }
};

/// Factory over every registered backend.  Unknown kinds throw
/// InvalidArgument naming the alternatives (make_interconnect's error
/// contract).
[[nodiscard]] std::unique_ptr<MemorySystem> make_memory(
    const MemoryConfig& config);

/// Convenience: default MemoryConfig with just the kind set.
[[nodiscard]] std::unique_ptr<MemorySystem> make_memory(
    const std::string& kind);

}  // namespace pimsim::mem
