#include "des/simulation.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>

#include "common/error.hpp"
#include "des/process.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"

namespace pimsim::des {

namespace {

/// True for any non-empty value except the literal "0".
bool env_enabled(const char* value) {
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

}  // namespace

Simulation::Simulation() {
  wheel_head_.fill(kNoSlot);
  wheel_tail_.fill(kNoSlot);
  // PIMSIM_AUDIT / PIMSIM_TRACE / PIMSIM_METRICS / PIMSIM_PROFILE turn the
  // corresponding layer on for every simulation in the process — the seam
  // `pimsim run ... audit=1 trace=... metrics=... profile=1` uses to reach
  // simulations constructed deep inside figure generators.
  // NOLINTNEXTLINE(concurrency-mt-unsafe): read-only env lookup; nothing
  // in-process calls setenv concurrently with simulation construction.
  if (env_enabled(std::getenv("PIMSIM_AUDIT"))) set_audit(true);
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  const char* trace_env = std::getenv("PIMSIM_TRACE");
  if (env_enabled(trace_env)) {
    set_trace(true);
    // The per-event kernel kinds flood the bounded buffer on any
    // non-trivial run, so the env-driven tracer masks them out unless
    // explicitly asked for everything with PIMSIM_TRACE=full.
    if (std::string_view(trace_env) != "full") {
      owned_tracer_->set_kind_mask(Tracer::kDefaultKinds);
    }
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char* cap_env = std::getenv("PIMSIM_TRACE_CAP");
    if (cap_env != nullptr && cap_env[0] != '\0') {
      owned_tracer_->set_capacity(
          static_cast<std::size_t>(std::strtoull(cap_env, nullptr, 10)));
    }
  }
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (env_enabled(std::getenv("PIMSIM_METRICS"))) set_metrics(true);
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (env_enabled(std::getenv("PIMSIM_PROFILE"))) set_profile(true);
}

Simulation::~Simulation() {
  // Destroy any still-suspended process frames, in deterministic
  // registration order. Guard against coroutine destructors scheduling
  // new work or unregistering re-entrantly.
  destroying_ = true;
  auto frames = std::move(live_order_);
  live_order_.clear();
  for (const LiveFrame& live : frames) {
    std::coroutine_handle<>::from_address(live.frame).destroy();
  }
  // Pending EventActions (and anything they own) die with slots_.
  if (audit_) AuditRegistry::global().absorb(*audit_);
  // Publish enabled observability layers to their process-wide hubs.
  if (metrics_) {
    // The kernel's own counters join the registry it has been hosting.
    metrics_->counter("des.events_dispatched").add(dispatched_);
    obs::MetricsHub::global().absorb(*metrics_);
  }
  if (owned_tracer_) obs::TraceHub::global().absorb(*owned_tracer_);
  if (profiler_) obs::ProfileHub::global().absorb(*profiler_);
}

// --- observability switches ----------------------------------------------

void Simulation::set_trace(bool enabled) {
  if (enabled) {
    if (!owned_tracer_) {
      owned_tracer_ = std::make_unique<Tracer>();
      set_tracer(owned_tracer_.get());
    }
  } else {
    if (tracer_ == owned_tracer_.get()) tracer_ = nullptr;
    owned_tracer_.reset();
  }
}

void Simulation::set_metrics(bool enabled) {
  if (enabled) {
    if (!metrics_) metrics_ = std::make_unique<obs::MetricsRegistry>();
  } else {
    metrics_.reset();
  }
}

obs::MetricsRegistry& Simulation::metrics() {
  ensure(metrics_ != nullptr, "Simulation::metrics: metrics mode is off");
  return *metrics_;
}

void Simulation::set_profile(bool enabled) {
  if (enabled) {
    if (!profiler_) profiler_ = std::make_unique<obs::KernelProfiler>();
  } else {
    profiler_.reset();
  }
}

// --- slot pool -----------------------------------------------------------

void Simulation::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  if (++slot.generation == 0) slot.generation = 1;  // 0 is the id sentinel
  slot.next_free = free_head_;
  free_head_ = index;
  --live_events_;
}

bool Simulation::cancel(EventId id) {
  const auto index = static_cast<std::uint32_t>(id);
  const auto gen = static_cast<std::uint32_t>(id >> 32);
  if (gen == 0 || index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  // The action check rejects ids forged for a currently-free slot.
  if (slot.generation != gen || !slot.action) return false;
  slot.action.reset();
  release_slot(index);
  ++stale_;
  if (tracer_) trace(TraceKind::kEventCancelled, lbl_event_, id);
  // Lazy deletion keeps cancel O(1); compact once stale entries dominate
  // so cancel-heavy workloads cannot grow the calendar without bound.
  if (stale_ * 2 > calendar_entries() && calendar_entries() >= kCompactFloor) {
    compact_calendar();
  }
  return true;
}

// --- d-ary heap ----------------------------------------------------------
//
// The heap holds only what the wheel cannot: entries beyond the window
// and entries that arrive out of order within a bucket.  A wide implicit
// heap cuts the tree depth of a binary heap, and the children of a node
// are scanned contiguously with a single branchless 128-bit key compare
// each.

void Simulation::heap_pop_top() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
}

void Simulation::sift_down(std::size_t i) {
  const std::size_t n = heap_.size();
  const CalendarEntry entry = heap_[i];
  for (;;) {
    const std::size_t first = kHeapArity * i + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = std::min(first + kHeapArity, n);
    for (std::size_t child = first + 1; child < last; ++child) {
      if (before(heap_[child], heap_[best])) best = child;
    }
    if (!before(heap_[best], entry)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = entry;
}

// --- bucket wheel --------------------------------------------------------

std::uint32_t Simulation::wheel_first() const {
  // Scan the occupancy words from the window's base bucket, wrapping once:
  // bucket order from there is cycle order.
  std::uint32_t word = wheel_base_bucket_ >> 6;
  std::uint64_t bits = wheel_occupied_[word] &
                       (~std::uint64_t{0} << (wheel_base_bucket_ & 63));
  for (std::size_t i = 0; i < wheel_occupied_.size(); ++i) {
    if (bits != 0) {
      return (word << 6) | static_cast<std::uint32_t>(__builtin_ctzll(bits));
    }
    word = (word + 1) % wheel_occupied_.size();
    bits = wheel_occupied_[word];
  }
  // Back at the base word: only buckets below the base bucket are left.
  return (word << 6) | static_cast<std::uint32_t>(__builtin_ctzll(bits));
}

void Simulation::wheel_pop(std::uint32_t bucket) {
  const std::uint32_t node = wheel_head_[bucket];
  const std::uint32_t next = wheel_nodes_[node].next;
  wheel_head_[bucket] = next;
  if (next == kNoSlot) {
    wheel_occupied_[bucket >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
  }
  wheel_nodes_[node].next = wheel_free_;
  wheel_free_ = node;
  --wheel_count_;
}

void Simulation::wheel_advance() {
  // Truncation is floor for non-negative times (and, unlike std::floor,
  // no libm call); the clamp keeps the conversion in range.
  const auto cycle = static_cast<std::int64_t>(std::min(now_, kWheelBaseLimit));
  wheel_base_ = static_cast<SimTime>(cycle);
  wheel_base_bucket_ = static_cast<std::uint32_t>(cycle) & kWheelMask;
}

// --- compaction ----------------------------------------------------------

void Simulation::compact_calendar() {
  std::size_t removed = 0;
  std::size_t keep = 0;
  for (const CalendarEntry& entry : heap_) {
    if (slots_[entry.slot].generation == entry.gen) {
      heap_[keep++] = entry;
    } else {
      ++removed;
    }
  }
  heap_.resize(keep);
  if (heap_.size() > 1) {
    // Floyd heapify: sift down every internal node, deepest first.
    for (std::size_t i = (heap_.size() - 2) / kHeapArity + 1; i-- > 0;) {
      sift_down(i);
    }
  }
  // Filter every bucket list in place, preserving its order.
  for (std::uint32_t bucket = 0; bucket < kWheelBuckets; ++bucket) {
    if (wheel_head_[bucket] == kNoSlot) continue;
    std::uint32_t tail = kNoSlot;
    for (std::uint32_t node = wheel_head_[bucket]; node != kNoSlot;) {
      CalendarEntry& entry = wheel_nodes_[node];
      const std::uint32_t next = entry.next;
      if (slots_[entry.slot].generation == entry.gen) {
        if (tail == kNoSlot) {
          wheel_head_[bucket] = node;
        } else {
          wheel_nodes_[tail].next = node;
        }
        tail = node;
      } else {
        entry.next = wheel_free_;
        wheel_free_ = node;
        --wheel_count_;
        ++removed;
      }
      node = next;
    }
    if (tail == kNoSlot) {
      wheel_head_[bucket] = kNoSlot;
      wheel_occupied_[bucket >> 6] &= ~(std::uint64_t{1} << (bucket & 63));
    } else {
      wheel_nodes_[tail].next = kNoSlot;
      wheel_tail_[bucket] = tail;
    }
  }
  // Filter the immediate lane in place, preserving FIFO order.
  std::size_t write = 0;
  for (std::size_t read = now_head_; read < now_queue_.size(); ++read) {
    const NowEntry& entry = now_queue_[read];
    if (slots_[entry.slot].generation == entry.gen) {
      now_queue_[write++] = entry;
    } else {
      ++removed;
    }
  }
  now_queue_.resize(write);
  now_head_ = 0;
  stale_ -= removed;
}

// --- dispatch ------------------------------------------------------------

// Pops the next live event in global (time, seq) order into `out`,
// merging the wheel, the heap and the immediate lane and lazily retiring
// stale (cancelled) entries from all three.  With `bounded`, live events
// beyond `horizon` are left in place and false is returned.
bool Simulation::pop_next(CalendarEntry& out, bool bounded, SimTime horizon) {
  for (;;) {
    // The calendar front: the first occupied bucket's head or the heap
    // top, whichever key is smaller.
    const CalendarEntry* front = nullptr;
    std::uint32_t bucket = kWheelBuckets;  // front's bucket; none: heap
    if (wheel_count_ != 0) {
      bucket = wheel_first();
      front = &wheel_nodes_[wheel_head_[bucket]];
    }
    if (!heap_.empty() && (front == nullptr || before(heap_.front(), *front))) {
      front = &heap_.front();
      bucket = kWheelBuckets;
    }
    // Lane entries are all at time now_; a calendar entry only precedes
    // the lane front if it is at now_ with an older sequence number --
    // one wide-key compare covers both fields.
    if (now_head_ < now_queue_.size() &&
        (front == nullptr ||
         !(front->key < calendar_key(now_, now_queue_[now_head_].seq)))) {
      const NowEntry entry = now_queue_[now_head_++];
      if (now_head_ == now_queue_.size()) {
        now_queue_.clear();
        now_head_ = 0;
      } else if (now_head_ >= kCompactFloor &&
                 now_head_ * 2 >= now_queue_.size()) {
        // Sustained same-time cascades can keep the lane non-empty for a
        // whole timestamp; reclaim the consumed prefix once it dominates
        // so lane memory stays O(pending), not O(events at this time).
        now_queue_.erase(now_queue_.begin(),
                         now_queue_.begin() +
                             static_cast<std::ptrdiff_t>(now_head_));
        now_head_ = 0;
      }
      if (slots_[entry.slot].generation != entry.gen) {
        --stale_;
        continue;
      }
      out = CalendarEntry{calendar_key(now_, entry.seq), entry.slot, entry.gen};
      return true;
    }
    if (front == nullptr) return false;
    const CalendarEntry entry = *front;
    const bool live = slots_[entry.slot].generation == entry.gen;
    if (live && bounded && entry.time() > horizon) return false;
    if (bucket == kWheelBuckets) {
      heap_pop_top();
    } else {
      wheel_pop(bucket);
    }
    if (!live) {
      --stale_;
      continue;
    }
    out = entry;
    return true;
  }
}

void Simulation::dispatch(const CalendarEntry& entry) {
  // Relocate the action out of the pool and retire the slot before
  // invoking: the callback may schedule (growing/reusing the pool) or
  // cancel, and must observe this event as already dispatched.
  EventAction action = std::move(slots_[entry.slot].action);
  release_slot(entry.slot);
  // Calendar corruption that survives pop_next's merge still surfaces
  // as an out-of-order dispatch; in audit mode that is fatal, not silent.
  if (audit_) {
    ensure(entry.time() >= now_,
           "Simulation audit: dispatch time moved backwards (calendar "
           "order violated)");
  }
  now_ = entry.time();
  // The window follows dispatch, and only dispatch: every pending entry is
  // at or after this event, so none falls below the new base.
  if (now_ >= wheel_base_ + 1.0) wheel_advance();
  current_seq_ = entry.seq();
  ++dispatched_;
  if (tracer_) {
    const EventId id =
        (static_cast<EventId>(entry.gen) << 32) | static_cast<EventId>(entry.slot);
    trace(TraceKind::kEventDispatched, lbl_event_, id);
  }
  if (audit_) {
    audit_->record(now_, current_seq_, action.kind_id());
    if (audit_countdown_ == 0) {
      audit_check_now();
      // Next sweep after ~pool-size events: the sweep is O(slots +
      // calendar), so the audit tax stays O(1) amortized per dispatch.
      audit_countdown_ = std::max<std::uint64_t>(kAuditCheckFloor,
                                                 slots_.size());
    } else {
      --audit_countdown_;
    }
  }
  if (profiler_) {
    dispatch_profiled(action);
  } else {
    action.invoke();
  }
  current_seq_ = 0;  // outside dispatch the documented value is 0
}

void Simulation::dispatch_profiled(EventAction& action) {
  // Counts are exact; wall time is sampled (one steady_clock pair every
  // kSampleEvery dispatches, attributed to that dispatch's kind) so the
  // timer cost is amortized to noise.  steady_clock measures wall time
  // only — it never feeds model state, so determinism is unaffected.
  const std::uint8_t kind = action.kind_id();
  profiler_->count(kind);
  if (profiler_->sample_due()) {
    const auto t0 = std::chrono::steady_clock::now();
    action.invoke();
    const std::chrono::duration<double> dt = std::chrono::steady_clock::now() - t0;
    profiler_->record_sample(kind, dt.count());
  } else {
    action.invoke();
  }
}

void Simulation::rethrow_pending() {
  if (pending_exception_) {
    std::exception_ptr ep = pending_exception_;
    pending_exception_ = nullptr;
    std::rethrow_exception(ep);
  }
}

void Simulation::run() {
  CalendarEntry entry;
  while (pop_next(entry, /*bounded=*/false, 0.0)) {
    dispatch(entry);
    rethrow_pending();
  }
}

void Simulation::run_until(SimTime horizon) {
  ensure(horizon >= now_, "Simulation::run_until: horizon is in the past");
  CalendarEntry entry;
  while (pop_next(entry, /*bounded=*/true, horizon)) {
    dispatch(entry);
    rethrow_pending();
  }
  now_ = horizon;
}

bool Simulation::step() {
  CalendarEntry entry;
  if (!pop_next(entry, /*bounded=*/false, 0.0)) return false;
  dispatch(entry);
  rethrow_pending();
  return true;
}

// --- determinism audit ---------------------------------------------------

void Simulation::set_audit(bool enabled) {
  if (enabled) {
    if (!audit_) {
      audit_ = std::make_unique<AuditLog>();
      audit_countdown_ = 0;  // sweep on the next dispatch
    }
  } else {
    audit_.reset();
  }
}

void Simulation::audit_check_now() const {
  // 4-ary heap order: every entry's key must not precede its parent's.
  for (std::size_t i = 1; i < heap_.size(); ++i) {
    const std::size_t parent = (i - 1) / kHeapArity;
    ensure(!before(heap_[i], heap_[parent]),
           "Simulation audit: heap order violated (child precedes parent)");
  }
  // Wheel: each bucket list is strictly key-ordered, lies in its bucket's
  // cycle of the window and ends at its tail; the occupancy bitmap and
  // the count agree with the lists.
  std::size_t listed = 0;
  for (std::uint32_t bucket = 0; bucket < kWheelBuckets; ++bucket) {
    const bool occupied =
        ((wheel_occupied_[bucket >> 6] >> (bucket & 63)) & 1U) != 0;
    ensure(occupied == (wheel_head_[bucket] != kNoSlot),
           "Simulation audit: wheel occupancy bit disagrees with its bucket");
    if (!occupied) continue;
    const SimTime cycle =
        wheel_base_ + ((bucket - wheel_base_bucket_) & kWheelMask);
    std::uint32_t last = kNoSlot;
    for (std::uint32_t node = wheel_head_[bucket]; node != kNoSlot;
         node = wheel_nodes_[node].next) {
      ensure(node < wheel_nodes_.size(),
             "Simulation audit: wheel node index out of range");
      ensure(++listed <= wheel_nodes_.size(),
             "Simulation audit: wheel bucket list cycle");
      ensure(std::floor(wheel_nodes_[node].time()) == cycle,
             "Simulation audit: wheel entry outside its bucket's cycle");
      ensure(last == kNoSlot || before(wheel_nodes_[last], wheel_nodes_[node]),
             "Simulation audit: wheel bucket order violated");
      last = node;
    }
    ensure(wheel_tail_[bucket] == last,
           "Simulation audit: wheel bucket tail is not its last node");
  }
  ensure(listed == wheel_count_,
         "Simulation audit: wheel count disagrees with its bucket lists");
  // Wheel node pool: the freelist accounts for every node not listed.
  std::size_t free_nodes = 0;
  for (std::uint32_t node = wheel_free_; node != kNoSlot;
       node = wheel_nodes_[node].next) {
    ensure(node < wheel_nodes_.size(),
           "Simulation audit: wheel freelist index out of range");
    ensure(++free_nodes <= wheel_nodes_.size(),
           "Simulation audit: wheel freelist cycle");
  }
  ensure(free_nodes + wheel_count_ == wheel_nodes_.size(),
         "Simulation audit: wheel node accounting mismatch");
  // Slot pool: the free list must be acyclic, in range, and account for
  // exactly the slots that live_events_ does not.
  std::size_t free_count = 0;
  for (std::uint32_t index = free_head_; index != kNoSlot;
       index = slots_[index].next_free) {
    ensure(index < slots_.size(),
           "Simulation audit: free-list index out of range");
    ensure(++free_count <= slots_.size(),
           "Simulation audit: free-list cycle");
  }
  ensure(free_count + live_events_ == slots_.size(),
         "Simulation audit: slot accounting mismatch (free + live != pool)");
  for (const Slot& slot : slots_) {
    ensure(slot.generation != 0,
           "Simulation audit: slot generation hit the 0 sentinel");
  }
  // Calendar: stale entries are a subset of calendar entries.
  ensure(stale_ <= calendar_entries(),
         "Simulation audit: stale count exceeds calendar size");
}

void Simulation::corrupt_heap_for_test() {
  // Pending wheel-or-heap entries: the wheel's in window order, then the
  // heap's in array order.
  std::vector<CalendarEntry*> entries;
  for (std::uint32_t i = 0; i < kWheelBuckets; ++i) {
    const std::uint32_t bucket = (wheel_base_bucket_ + i) & kWheelMask;
    for (std::uint32_t node = wheel_head_[bucket]; node != kNoSlot;
         node = wheel_nodes_[node].next) {
      entries.push_back(&wheel_nodes_[node]);
    }
  }
  for (CalendarEntry& entry : heap_) entries.push_back(&entry);
  ensure(entries.size() >= 2,
         "corrupt_heap_for_test: needs >= 2 future events");
  std::swap(entries.front()->key, entries.back()->key);
}

// --- process layer hooks -------------------------------------------------

void Simulation::spawn(Process process) {
  auto h = process.release_for_spawn(*this);
  if (tracer_) trace(TraceKind::kProcessSpawned, lbl_process_);
  // Start the body via the calendar so spawn() never runs model code inline;
  // this keeps spawn order == start order at a given timestamp.
  resume_soon(h);
}

void Simulation::register_process(std::coroutine_handle<> h,
                                  std::size_t& pos) {
  pos = live_order_.size();
  live_order_.push_back(LiveFrame{h.address(), &pos});
}

void Simulation::unregister_process(std::size_t pos) {
  if (destroying_) return;
  // Swap-and-pop: O(1), and deterministic because the sequence of
  // register/unregister calls is itself deterministic.  The moved frame's
  // promise learns its new index.
  if (pos + 1 != live_order_.size()) {
    live_order_[pos] = live_order_.back();
    *live_order_[pos].pos = pos;
  }
  live_order_.pop_back();
  if (tracer_) trace(TraceKind::kProcessFinished, lbl_process_);
}

void Simulation::set_pending_exception(std::exception_ptr ep) {
  // Keep the first exception; nested failures would mask the root cause.
  if (!pending_exception_) pending_exception_ = ep;
}

}  // namespace pimsim::des
