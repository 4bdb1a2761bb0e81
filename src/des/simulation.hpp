// The discrete-event scheduler at the heart of pimsim.
//
// This is the replacement for the HyPerformix SES/Workbench kernel the
// paper used: a single-threaded event calendar with deterministic
// (time, insertion-order) dispatch, plus a C++20-coroutine process layer
// declared in process.hpp.
//
// Typical use:
//
//   des::Simulation sim;
//   sim.spawn(my_model(sim, ...));      // my_model returns des::Process
//   sim.run();                          // or sim.run_until(horizon)
//
// Determinism: two events scheduled for the same timestamp dispatch in
// scheduling order, so a model that uses only Simulation-provided
// primitives and pimsim::Rng streams is bit-reproducible.
//
// Internals (see README "The calendar"): callback events live in a
// generation-tagged slot pool; coroutine resumes live in the calendar
// entry itself.  Calendar entries are (time, seq, slot and generation or
// coroutine frame) records kept in three queues that pop_next merges by
// key:
//   * the immediate lane, a FIFO of events scheduled exactly at now();
//   * a 256-bucket wheel of one-cycle FIFO lists covering
//     [floor(last dispatch time), +256), which takes every entry whose key
//     sorts after its bucket's tail -- O(1) push and pop;
//   * a 4-ary min-heap for the rest (beyond the window, or out of order
//     within a bucket).
// cancel() bumps the slot's generation in O(1) and leaves a stale entry
// behind, which dispatch skips lazily and a compaction pass reclaims
// whenever stale entries outnumber live ones.  Callbacks are EventAction
// tagged unions; the coroutine-resume paths (resume_soon / delay /
// mailbox wake-ups) take no slot at all: they cannot be cancelled, so
// their entries are always live and dispatch resumes the frame directly.
#pragma once

#include <array>
#include <coroutine>
#include <cstdint>
#include <functional>
#include <memory>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "common/units.hpp"
#include "des/audit.hpp"
#include "des/event_action.hpp"
#include "des/trace.hpp"

// Observability layer (src/obs/): forward-declared so the kernel header
// stays include-light; simulation.cpp pulls in the real definitions.
namespace pimsim::obs {
class KernelProfiler;
class MetricsRegistry;
}  // namespace pimsim::obs

namespace pimsim::des {

class Process;

/// Identifies a scheduled event so it can be cancelled before dispatch.
/// Encodes (slot generation << 32 | slot index); stale ids never match.
using EventId = std::uint64_t;
/// Sentinel returned when no cancellable handle is needed.
inline constexpr EventId kInvalidEvent = 0;

class Simulation {
 public:
  Simulation();
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulation time in HWP cycles.
  [[nodiscard]] SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (>= now).
  template <typename F>
  EventId schedule_at(SimTime at, F&& fn) {
    if constexpr (requires { static_cast<bool>(fn); }) {
      ensure(static_cast<bool>(fn), "Simulation::schedule_at: empty callback");
    }
    return schedule_action(at, EventAction::wrap(std::forward<F>(fn)));
  }
  /// Schedules `fn` to run after `delay` cycles.
  template <typename F>
  EventId schedule_in(Cycles delay, F&& fn) {
    ensure(delay >= 0.0, "Simulation::schedule_in: negative delay");
    return schedule_at(now_ + delay, std::forward<F>(fn));
  }
  /// Schedules `fn` to run at the current time, after pending same-time events.
  template <typename F>
  EventId schedule_now(F&& fn) {
    return schedule_at(now_, std::forward<F>(fn));
  }

  /// Cancels a pending event; returns false if already dispatched/unknown.
  /// O(1): the slot is reclaimed immediately, the calendar entry decays.
  bool cancel(EventId id);

  /// Runs until the event calendar is empty.
  void run();
  /// Runs all events with time <= horizon, then advances now() to horizon.
  void run_until(SimTime horizon);
  /// Dispatches a single event; returns false if the calendar is empty.
  bool step();

  /// Number of events dispatched so far (diagnostic).
  [[nodiscard]] std::uint64_t events_dispatched() const { return dispatched_; }
  /// Number of live (schedulable, not cancelled) events currently pending,
  /// coroutine resumes included.
  [[nodiscard]] std::size_t events_pending() const {
    return live_slots_ + live_resumes_;
  }
  /// Calendar entries (wheel + heap + immediate lane), including stale
  /// ones awaiting lazy removal.  Bounded at < 2x events_pending() +
  /// compaction floor (leak diagnostic).
  [[nodiscard]] std::size_t calendar_entries() const {
    return wheel_count_ + heap_.size() + (now_queue_.size() - now_head_);
  }
  /// Stale (cancelled) calendar entries not yet compacted away.
  [[nodiscard]] std::size_t stale_calendar_entries() const { return stale_; }

  /// Starts a coroutine process; the simulation owns its frame.
  /// The process body begins executing at the current simulation time
  /// (via an immediate event), not synchronously inside spawn().
  void spawn(Process process);

  /// Number of live (spawned, unfinished) processes.
  [[nodiscard]] std::size_t live_processes() const {
    return live_order_.size();
  }

  /// Installs (or removes, with nullptr) a tracer.  Not owned; externally
  /// installed tracers are not absorbed into obs::TraceHub at destruction
  /// (use set_trace() for that).
  void set_tracer(Tracer* tracer) {
    tracer_ = tracer;
    if (tracer_ != nullptr) {
      lbl_event_ = tracer_->intern("event");
      lbl_process_ = tracer_->intern("process");
    }
  }
  [[nodiscard]] Tracer* tracer() const { return tracer_; }
  /// Fast guard for hot paths that would otherwise pay argument setup
  /// (label interning, payload computation) before trace() can bail out.
  [[nodiscard]] bool tracing_enabled() const { return tracer_ != nullptr; }
  /// Emits a POD trace record if tracing is enabled.  Inline so the
  /// tracer-disabled case costs one predicted branch on the hot paths.
  /// `label` is an interned id (see trace_label); `a`/`b` are
  /// kind-specific payload words — no strings, no allocation.
  void trace(TraceKind kind, LabelId label, std::uint64_t a = 0,
             std::uint64_t b = 0) const {
    if (tracer_) tracer_->record(TraceRecord{now_, a, b, label, kind});
  }
  /// Interns `name` into the active tracer's label table (0 when tracing
  /// is off).  Call sites cache the returned id (kLabelUninterned as the
  /// not-yet sentinel) so the hot path never touches strings.
  [[nodiscard]] LabelId trace_label(std::string_view name) const {
    return tracer_ != nullptr ? tracer_->intern(name) : LabelId{0};
  }

  // --- determinism audit mode (see des/audit.hpp) ------------------------
  //
  // When enabled, every dispatch folds its (time, seq, action-kind) tuple
  // into an FNV-1a hash chain, and O(1)-amortized invariant sweeps cover
  // the bucket wheel's lists and the 4-ary heap order, the slot-pool
  // generations/free list, and any component self-checks keyed off
  // audit_enabled() (the packet network audits its credit ledgers).  When off, the cost is one predicted
  // branch per dispatch — the tracing_enabled() pattern, held to the
  // bench_engine floors.  The PIMSIM_AUDIT=1 environment variable turns
  // it on at construction, which is how `pimsim run/verify ... audit=1`
  // reaches simulations buried inside figure generators.

  /// Enables/disables audit mode.  Disabling discards the chain without
  /// reporting it to the AuditRegistry.
  void set_audit(bool enabled);
  /// Fast guard, mirroring tracing_enabled(): components gate their own
  /// audit-mode invariant checks behind this.
  [[nodiscard]] bool audit_enabled() const { return audit_ != nullptr; }
  /// The event-chain log, or nullptr when audit mode is off.
  [[nodiscard]] const AuditLog* audit_log() const { return audit_.get(); }
  /// Runs the kernel invariant sweep immediately (throws LogicError on a
  /// violated invariant).  Audit mode runs this automatically on an
  /// O(1)-amortized cadence; tests call it directly.
  void audit_check_now() const;
  /// Test-only: deliberately breaks the calendar-order invariant (swaps
  /// the keys of the first and last pending wheel-or-heap entries) so
  /// tests can prove the audit sweep catches corruption.  Requires >= 2
  /// future events at distinct times.
  void corrupt_heap_for_test();

  // --- observability (src/obs/, docs/OBSERVABILITY.md) -------------------
  //
  // Three independently switchable layers behind the same null-check
  // contract as audit mode (one predicted branch per hot-path action when
  // off): a simulation-owned Tracer feeding the Chrome-trace exporter
  // (PIMSIM_TRACE / `trace=out.json`), a metrics registry components bind
  // typed handles into (PIMSIM_METRICS / `metrics=out.json`), and a kernel
  // self-profiler attributing dispatches to EventAction kinds
  // (PIMSIM_PROFILE / `profile=1`).  At destruction each enabled layer is
  // absorbed into its process-wide hub (obs::TraceHub, obs::MetricsHub,
  // obs::ProfileHub) — how the CLI reaches simulations buried inside
  // figure generators, mirroring the audit seam above.

  /// Enables/disables the owned tracer (absorbed into obs::TraceHub at
  /// destruction, unlike an external set_tracer() sink).
  void set_trace(bool enabled);
  /// Enables/disables the metrics registry.  Components grab their
  /// handles at construction time, so enable before building the model.
  void set_metrics(bool enabled);
  /// Fast guard, mirroring tracing_enabled(): components gate metric
  /// recording and registration behind this.
  [[nodiscard]] bool metrics_enabled() const { return metrics_ != nullptr; }
  /// The metrics registry; requires metrics_enabled().
  [[nodiscard]] obs::MetricsRegistry& metrics();
  /// Enables/disables the kernel self-profiler.
  void set_profile(bool enabled);
  [[nodiscard]] bool profile_enabled() const { return profiler_ != nullptr; }
  /// The profiler, or nullptr when off.
  [[nodiscard]] const obs::KernelProfiler* profiler() const {
    return profiler_.get();
  }

  // --- hooks for deterministic deferred-event components -----------------
  //
  // The packet network (interconnect/network.cpp) avoids scheduling one
  // calendar event per flit arrival by keeping arrivals in its own
  // per-link rings.  To preserve the dispatch order an eager event would
  // have had, it allocates the event's sequence number at the moment the
  // old design would have scheduled it (allocate_seq) and, if a real
  // wake-up later turns out to be needed, schedules it *at that key*
  // (schedule_at_seq) — same-time events then dispatch in exactly the
  // order of their allocation points.

  /// Consumes one scheduling sequence number without scheduling anything.
  std::uint64_t allocate_seq() { return next_seq_++; }

  /// Sequence of the event currently being dispatched (0 outside
  /// dispatch).  A side effect performed synchronously inside an event
  /// holds this position in the global FIFO order.
  [[nodiscard]] std::uint64_t current_dispatch_seq() const {
    return current_seq_;
  }

  /// Schedules a static-call event under a key from allocate_seq().
  /// `at` must be strictly in the future (a key older than already
  /// dispatched same-time events cannot be honoured).
  EventId schedule_static_at_seq(SimTime at, std::uint64_t seq,
                                 EventAction::StaticFn fn, void* ctx,
                                 std::uint64_t a, std::uint64_t b) {
    ensure(at > now_, "Simulation::schedule_static_at_seq: must be future");
    return schedule_action_seq(at, seq, EventAction::call(fn, ctx, a, b));
  }

  /// Schedules a static-call event (the allocation-free fast path for
  /// homogeneous high-volume events; see EventAction::call).
  EventId schedule_static_at(SimTime at, EventAction::StaticFn fn, void* ctx,
                             std::uint64_t a, std::uint64_t b) {
    return schedule_action(at, EventAction::call(fn, ctx, a, b));
  }

  // --- internal hooks used by the process layer (see process.hpp) ---
  //
  // A resume takes a seq like any event but no slot: the calendar entry
  // holds the frame address, and it cannot be cancelled, so no id is
  // returned.  Traced resumes carry id 0.

  /// Schedules resumption of a suspended coroutine at absolute time `at`.
  void resume_at(SimTime at, std::coroutine_handle<> h) {
    schedule_resume(at, h);
  }
  /// Schedules resumption after `delay` cycles (the delay() fast path).
  void resume_in(Cycles delay, std::coroutine_handle<> h) {
    ensure(delay >= 0.0, "Simulation::resume_in: negative delay");
    schedule_resume(now_ + delay, h);
  }
  /// Schedules resumption at now(), after pending same-time events.
  void resume_soon(std::coroutine_handle<> h) { schedule_resume(now_, h); }
  /// Registers/unregisters live process frames for cleanup.  `pos` lives
  /// in the frame's promise: the kernel keeps it equal to the frame's
  /// index in the registry, so unregistering needs no lookup.
  void register_process(std::coroutine_handle<> h, std::size_t& pos);
  void unregister_process(std::size_t pos);
  /// Records an exception escaping a process body; rethrown by run()/step().
  void set_pending_exception(std::exception_ptr ep);

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Compaction is skipped below this calendar size: a bounded number of
  /// stale entries is cheaper to skip at dispatch than to rebuild away.
  static constexpr std::size_t kCompactFloor = 64;

  struct Slot {
    EventAction action;
    std::uint32_t generation = 1;  // bumped on dispatch/cancel; never 0
    std::uint32_t next_free = kNoSlot;
  };

  /// What a calendar entry dispatches: a slot event's EventId
  /// ((generation << 32) | slot; stale once the generation moves on), or
  /// with `resume`, the address of a coroutine frame to resume.
  struct EventRef {
    std::uint64_t bits;
    bool resume;

    static EventRef frame(std::coroutine_handle<> h) {
      return EventRef{reinterpret_cast<std::uintptr_t>(h.address()), true};
    }
    [[nodiscard]] std::uint32_t slot() const {
      return static_cast<std::uint32_t>(bits);
    }
    [[nodiscard]] std::uint32_t gen() const {
      return static_cast<std::uint32_t>(bits >> 32);
    }
    [[nodiscard]] std::coroutine_handle<> handle() const {
      return std::coroutine_handle<>::from_address(
          reinterpret_cast<void*>(static_cast<std::uintptr_t>(bits)));
    }
  };

  /// Calendar entry ordered by a single 128-bit (time, seq) key: event
  /// times are non-negative, so the IEEE bit pattern of `time` compares
  /// like the double itself, and one wide integer compare replaces the
  /// two-branch (time, seq) comparison on the calendar's hottest paths.
  struct CalendarEntry {
    unsigned __int128 key;  // (bit_cast<u64>(time) << 64) | seq
    std::uint64_t bits;     // EventRef::bits
    // Next node of a wheel bucket list or of the node freelist (kNoSlot
    // ends both); unused in the heap.  With the tag it fills the key's
    // alignment padding, so neither costs space.
    std::uint32_t next = kNoSlot;
    // EventRef::resume.  A full word, so the entry has no padding bytes
    // and copies as two aligned 16-byte moves (a partial copy of a bool
    // tail stalls store forwarding on the dispatch path).
    std::uint32_t resume = 0;

    [[nodiscard]] SimTime time() const {
      const auto bits = static_cast<std::uint64_t>(key >> 64);
      SimTime t;
      __builtin_memcpy(&t, &bits, sizeof(t));
      return t;
    }
    [[nodiscard]] std::uint64_t seq() const {
      return static_cast<std::uint64_t>(key);
    }
    [[nodiscard]] EventRef ref() const { return EventRef{bits, resume != 0}; }
  };
  static_assert(sizeof(CalendarEntry) == 32 &&
                    std::has_unique_object_representations_v<CalendarEntry>,
                "a calendar entry is two to a cache line, with no padding");

  static unsigned __int128 calendar_key(SimTime time, std::uint64_t seq) {
    std::uint64_t bits;
    __builtin_memcpy(&bits, &time, sizeof(bits));
    return (static_cast<unsigned __int128>(bits) << 64) | seq;
  }

  /// An event scheduled exactly at now(): lives in the immediate lane, a
  /// FIFO ring that never touches the wheel or the heap.  Always at time
  /// now_, ordered by seq by construction.
  struct NowEntry {
    std::uint64_t seq;
    EventRef ref;
  };

  static bool before(const CalendarEntry& a, const CalendarEntry& b) {
    return a.key < b.key;
  }

  /// False only for a slot event cancelled since `ref` was filed; a
  /// resume is always live and its check never touches the slot pool.
  [[nodiscard]] bool live(EventRef ref) const {
    return ref.resume || slots_[ref.slot()].generation == ref.gen();
  }

  // The scheduling fast path is defined inline (below the class) so the
  // resume_* hooks compile down to a seq bump and one queue push at every
  // call site, and template schedule_* add a freelist pop and a tag store.
  EventId schedule_action(SimTime at, EventAction action);
  EventId schedule_action_seq(SimTime at, std::uint64_t seq,
                              EventAction action);
  void schedule_resume(SimTime at, std::coroutine_handle<> h);
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  bool pop_next(CalendarEntry& out, bool bounded, SimTime horizon);
  void dispatch(const CalendarEntry& entry);
  /// Folds a dispatch of `kind` into the audit chain and runs the
  /// amortized invariant sweep when due (audit mode only).
  void audit_dispatch(std::uint8_t kind);
  template <typename Run>
  void dispatch_profiled(std::uint8_t kind, Run run);
  void rethrow_pending();

  /// Files a future entry (built fresh, so its `next` is kNoSlot):
  /// appended to its cycle's wheel bucket when it lies in the window and
  /// sorts after the bucket's tail, else pushed on the heap.
  void calendar_push(SimTime at, const CalendarEntry& entry);

  // One-cycle bucket wheel (a calendar queue, Brown, CACM 1988) in front
  // of the heap.  Bucket b holds the entries whose floor(time) is the
  // cycle of the window [wheel_base_, wheel_base_ + kWheelBuckets)
  // congruent to b, as a key-ordered FIFO list of indices into
  // wheel_nodes_.
  static constexpr std::uint32_t kWheelBuckets = 256;
  static constexpr std::uint32_t kWheelMask = kWheelBuckets - 1;
  /// Window bases are clamped here: below 2^52 a double holds every whole
  /// cycle exactly, so bucket indexing never rounds or overflows.
  static constexpr SimTime kWheelBaseLimit = 4503599627370496.0;  // 2^52
  static std::uint32_t wheel_bucket(SimTime at) {
    return static_cast<std::uint32_t>(static_cast<std::int64_t>(at)) &
           kWheelMask;
  }
  /// First occupied bucket in window order; requires wheel_count_ > 0.
  [[nodiscard]] std::uint32_t wheel_first() const;
  void wheel_pop(std::uint32_t bucket);
  /// Moves the window to start at floor(now_); called on dispatch only.
  void wheel_advance();

  // D-ary implicit min-heap over heap_ (children of i: D*i+1 .. D*i+D).
  static constexpr std::size_t kHeapArity = 4;
  void heap_push(const CalendarEntry& entry);
  void heap_pop_top();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void compact_calendar();

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t current_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::size_t live_slots_ = 0;    // pending slot-backed events
  std::size_t live_resumes_ = 0;  // pending coroutine resumes
  std::size_t stale_ = 0;
  // Wheel window: wheel_base_ is the floor of the last dispatched event's
  // time (clamped to kWheelBaseLimit).  It moves only when a live event
  // is dispatched -- never on a run_until peek or a stale retirement --
  // so every pending entry stays >= wheel_base_ and each bucket maps to
  // exactly one cycle.
  SimTime wheel_base_ = 0.0;
  std::uint32_t wheel_base_bucket_ = 0;
  std::size_t wheel_count_ = 0;  // entries (live + stale) in bucket lists
  std::array<std::uint32_t, kWheelBuckets> wheel_head_;  // kNoSlot: empty
  std::array<std::uint32_t, kWheelBuckets> wheel_tail_;  // valid if non-empty
  std::array<std::uint64_t, kWheelBuckets / 64> wheel_occupied_{};
  std::vector<CalendarEntry> wheel_nodes_;  // list nodes + freelist
  std::uint32_t wheel_free_ = kNoSlot;
  std::vector<CalendarEntry> heap_;
  // Immediate lane: [now_head_, now_queue_.size()) are pending; the
  // consumed prefix is recycled whenever the lane drains.
  std::vector<NowEntry> now_queue_;
  std::size_t now_head_ = 0;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  // Live process frames in deterministic (insertion/swap) order: the
  // destructor tears frames down in this order, so shutdown side effects
  // cannot depend on pointer values.  Each frame's promise holds its own
  // index (`pos`), which swap-and-pop keeps current.
  struct LiveFrame {
    void* frame;
    std::size_t* pos;
  };
  std::vector<LiveFrame> live_order_;
  std::exception_ptr pending_exception_;
  Tracer* tracer_ = nullptr;
  // Cached interned ids for the kernel's own trace labels (set by
  // set_tracer so the scheduling fast path stays string-free).
  LabelId lbl_event_ = 0;
  LabelId lbl_process_ = 0;
  // Observability layers: null when off, so every hot path pays exactly
  // one predicted branch (the audit-mode contract).
  std::unique_ptr<Tracer> owned_tracer_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::KernelProfiler> profiler_;
  bool destroying_ = false;
  // Audit mode: null when off, so the dispatch hot path pays one branch.
  std::unique_ptr<AuditLog> audit_;
  /// Dispatches until the next invariant sweep (amortizes the O(slots +
  /// calendar) sweep to O(1) per event).
  std::uint64_t audit_countdown_ = 0;
  static constexpr std::uint64_t kAuditCheckFloor = 64;
};

// --- inline scheduling fast path ----------------------------------------

inline std::uint32_t Simulation::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    return index;
  }
  ensure(slots_.size() < kNoSlot, "Simulation: event slot pool exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

inline void Simulation::sift_up(std::size_t i) {
  const CalendarEntry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (!before(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

inline void Simulation::heap_push(const CalendarEntry& entry) {
  heap_.push_back(entry);
  sift_up(heap_.size() - 1);
}

inline void Simulation::calendar_push(SimTime at, const CalendarEntry& entry) {
  if (at < wheel_base_ + kWheelBuckets) {
    const std::uint32_t bucket = wheel_bucket(at);
    const bool empty = wheel_head_[bucket] == kNoSlot;
    if (empty || before(wheel_nodes_[wheel_tail_[bucket]], entry)) {
      std::uint32_t node = wheel_free_;
      if (node != kNoSlot) {
        wheel_free_ = wheel_nodes_[node].next;
        wheel_nodes_[node] = entry;
      } else {
        ensure(wheel_nodes_.size() < kNoSlot,
               "Simulation: wheel node pool exhausted");
        node = static_cast<std::uint32_t>(wheel_nodes_.size());
        wheel_nodes_.push_back(entry);
      }
      if (empty) {
        wheel_head_[bucket] = node;
        wheel_occupied_[bucket >> 6] |= std::uint64_t{1} << (bucket & 63);
      } else {
        wheel_nodes_[wheel_tail_[bucket]].next = node;
      }
      wheel_tail_[bucket] = node;
      ++wheel_count_;
      return;
    }
  }
  // Beyond the window, or out of order within its bucket (an earlier
  // fractional time, or a replayed older seq): the heap keeps it sorted.
  heap_push(entry);
}

inline EventId Simulation::schedule_action(SimTime at, EventAction action) {
  ensure(at >= now_, "Simulation::schedule_at: cannot schedule in the past");
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.action = std::move(action);
  const EventId id = (static_cast<EventId>(slot.generation) << 32) |
                     static_cast<EventId>(index);
  const std::uint64_t seq = next_seq_++;
  if (at == now_) {
    // Immediate lane: same-time events (resume_soon, mailbox wake-ups,
    // spawns) skip the wheel and heap entirely; FIFO order == seq order.
    now_queue_.push_back(NowEntry{seq, EventRef{id, false}});
  } else {
    calendar_push(at, CalendarEntry{calendar_key(at, seq), id});
  }
  ++live_slots_;
  if (tracer_) trace(TraceKind::kEventScheduled, lbl_event_, id);
  return id;
}

inline void Simulation::schedule_resume(SimTime at,
                                        std::coroutine_handle<> h) {
  ensure(at >= now_, "Simulation::schedule_at: cannot schedule in the past");
  const EventRef ref = EventRef::frame(h);
  const std::uint64_t seq = next_seq_++;
  if (at == now_) {
    now_queue_.push_back(NowEntry{seq, ref});
  } else {
    calendar_push(at, CalendarEntry{calendar_key(at, seq), ref.bits, kNoSlot,
                                    1});
  }
  ++live_resumes_;
  if (tracer_) trace(TraceKind::kEventScheduled, lbl_event_, 0);
}

inline des::EventId Simulation::schedule_action_seq(SimTime at,
                                                    std::uint64_t seq,
                                                    EventAction action) {
  // A keyed event is always strictly in the future (callers ensure it),
  // so it never enters the immediate lane, whose FIFO assumes seq order
  // matches push order; a replayed older key that sorts before its
  // bucket's tail falls through to the heap.
  const std::uint32_t index = acquire_slot();
  Slot& slot = slots_[index];
  slot.action = std::move(action);
  const EventId id = (static_cast<EventId>(slot.generation) << 32) |
                     static_cast<EventId>(index);
  calendar_push(at, CalendarEntry{calendar_key(at, seq), id});
  ++live_slots_;
  if (tracer_) trace(TraceKind::kEventScheduled, lbl_event_, id);
  return id;
}

}  // namespace pimsim::des
