// Semantics the event-kernel rewrite must preserve (and the bugs it
// fixes): void-action requests completing, step()/run()/run_until()
// equivalence, cancel-during-dispatch, the cancelled-event calendar
// leak, and bitwise determinism of the Figure 12 pipeline.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/figures.hpp"
#include "des/audit.hpp"
#include "des/process.hpp"
#include "des/simulation.hpp"
#include "parcel/network.hpp"
#include "parcel/runtime.hpp"

namespace pimsim {
namespace {

// --- void-action request/reply (the split-transaction hang) -------------

parcel::Parcel write_parcel(parcel::NodeId dst, std::uint64_t vaddr,
                            std::uint64_t value) {
  parcel::Parcel p;
  p.dst = dst;
  p.action = parcel::ActionKind::kWrite;
  p.target_vaddr = vaddr;
  p.operands = {value};
  return p;
}

TEST(ParcelMachineSemantics, VoidActionRequestCompletes) {
  des::Simulation sim;
  parcel::FlatInterconnect net(100.0);
  parcel::ParcelMachine machine(sim, 2, net);

  bool completed = false;
  auto client = [](parcel::ParcelMachine& m, bool* done) -> des::Process {
    // A write returns no value; the request must still complete via an
    // empty-operand reply rather than hanging the driver forever.
    auto handle = m.request(0, write_parcel(1, 0x20, 9));
    co_await handle.wait();
    EXPECT_TRUE(handle.done());
    EXPECT_THROW((void)handle.value(), ConfigError);  // no value to read
    *done = true;
  };
  sim.spawn(client(machine, &completed));
  machine.run();

  EXPECT_TRUE(completed);
  EXPECT_EQ(machine.store(1).read(0x20), 9u);
  EXPECT_EQ(machine.node_stats(1).replies_returned, 1u);
  EXPECT_EQ(machine.outstanding_requests(), 0u);
}

TEST(ParcelMachineSemantics, RunSurfacesStuckDrivers) {
  des::Simulation sim;
  parcel::FlatInterconnect net(10.0);
  parcel::ParcelMachine machine(sim, 2, net);

  // A driver that suspends on a trigger nobody fires: the old engine
  // exited run() silently in this situation; now it must throw.
  des::Trigger never(sim);
  auto stuck = [](des::Trigger& t) -> des::Process { co_await t.wait(); };
  sim.spawn(stuck(never));
  EXPECT_THROW(machine.run(), LogicError);
}

TEST(ParcelMachineSemantics, RunToleratesDeclaredIdleProcesses) {
  des::Simulation sim;
  parcel::FlatInterconnect net(10.0);
  parcel::ParcelMachine machine(sim, 2, net);

  // An app-level server that legitimately idles forever, like the node
  // engines do: declaring it keeps run() from calling it a stuck driver.
  des::Mailbox<int> requests(sim, "server.in");
  auto server = [](des::Mailbox<int>& in) -> des::Process {
    for (;;) (void)co_await in.receive();
  };
  sim.spawn(server(requests));
  EXPECT_THROW(machine.run(), LogicError);
  EXPECT_NO_THROW(machine.run(/*extra_idle_processes=*/1));
}

TEST(ParcelMachineSemantics, PostedVoidActionsStillSkipReplies) {
  des::Simulation sim;
  parcel::FlatInterconnect net(10.0);
  parcel::ParcelMachine machine(sim, 2, net);
  machine.post(0, write_parcel(1, 0x8, 3));
  machine.run();
  EXPECT_EQ(machine.store(1).read(0x8), 3u);
  EXPECT_EQ(machine.node_stats(1).replies_returned, 0u);
}

// --- kernel dispatch semantics ------------------------------------------

/// A workload exercising same-time FIFO, future events, and cancels.
struct KernelTrace {
  std::vector<int> order;
  std::uint64_t dispatched = 0;
  double final_time = 0.0;
};

KernelTrace run_workload(int mode /* 0=run, 1=step, 2=sliced run_until */) {
  des::Simulation sim;
  KernelTrace out;
  sim.schedule_at(5.0, [&] { out.order.push_back(1); });
  sim.schedule_at(5.0, [&] {
    out.order.push_back(2);
    sim.schedule_now([&] { out.order.push_back(4); });
    sim.schedule_in(2.5, [&] { out.order.push_back(5); });
  });
  const des::EventId doomed =
      sim.schedule_at(6.0, [&] { out.order.push_back(99); });
  sim.schedule_at(5.0, [&] { out.order.push_back(3); });
  EXPECT_TRUE(sim.cancel(doomed));
  sim.schedule_at(10.0, [&] { out.order.push_back(6); });

  if (mode == 0) {
    sim.run();
  } else if (mode == 1) {
    while (sim.step()) {
    }
  } else {
    for (double t = 0.5; t < 12.0; t += 0.5) sim.run_until(t);
    sim.run();
  }
  out.dispatched = sim.events_dispatched();
  out.final_time = sim.now();
  return out;
}

TEST(SimulationSemantics, StepRunAndRunUntilAreEquivalent) {
  const KernelTrace by_run = run_workload(0);
  const KernelTrace by_step = run_workload(1);
  const KernelTrace by_slice = run_workload(2);

  const std::vector<int> expected{1, 2, 3, 4, 5, 6};
  EXPECT_EQ(by_run.order, expected);
  EXPECT_EQ(by_step.order, expected);
  EXPECT_EQ(by_slice.order, expected);
  EXPECT_EQ(by_run.dispatched, by_step.dispatched);
  EXPECT_EQ(by_run.dispatched, by_slice.dispatched);
  // run_until() parks the clock at the horizon; run()/step() stop at the
  // last event.
  EXPECT_DOUBLE_EQ(by_run.final_time, 10.0);
  EXPECT_DOUBLE_EQ(by_step.final_time, 10.0);
}

TEST(SimulationSemantics, CancelDuringDispatch) {
  des::Simulation sim;
  bool later_fired = false;
  des::EventId later = des::kInvalidEvent;
  // An event that cancels a same-timestamp successor mid-dispatch.
  sim.schedule_at(1.0, [&] { EXPECT_TRUE(sim.cancel(later)); });
  later = sim.schedule_at(1.0, [&] { later_fired = true; });
  sim.run();
  EXPECT_FALSE(later_fired);
  EXPECT_EQ(sim.events_dispatched(), 1u);
  EXPECT_EQ(sim.events_pending(), 0u);
}

TEST(SimulationSemantics, SelfCancelInsideCallbackIsNoOp) {
  des::Simulation sim;
  des::EventId id = des::kInvalidEvent;
  int fired = 0;
  id = sim.schedule_at(2.0, [&] {
    ++fired;
    EXPECT_FALSE(sim.cancel(id));  // the dispatching event is gone already
  });
  sim.run();
  EXPECT_EQ(fired, 1);
}

TEST(SimulationSemantics, EventIdsAreNotConfusedAcrossSlotReuse) {
  des::Simulation sim;
  bool first_fired = false;
  bool second_fired = false;
  const des::EventId first = sim.schedule_at(1.0, [&] { first_fired = true; });
  EXPECT_TRUE(sim.cancel(first));
  // The slot is recycled: the stale id must not cancel the new event.
  const des::EventId second =
      sim.schedule_at(2.0, [&] { second_fired = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(sim.cancel(first));
  sim.run();
  EXPECT_FALSE(first_fired);
  EXPECT_TRUE(second_fired);
}

// --- the cancelled-event calendar leak ----------------------------------

TEST(SimulationSemantics, CancelledFarFutureEventsDoNotAccumulate) {
  des::Simulation sim;
  // Pre-rewrite, each cancelled far-future timeout left a calendar entry
  // alive until its (never-reached) timestamp: a million cancelled
  // timeouts meant a million dead heap nodes.  The slot-pool kernel
  // bounds the calendar to O(live events).
  constexpr int kTimeouts = 1'000'000;
  std::size_t max_entries = 0;
  for (int i = 0; i < kTimeouts; ++i) {
    const des::EventId id =
        sim.schedule_at(1e12 + static_cast<double>(i), [] {});
    ASSERT_TRUE(sim.cancel(id));
    max_entries = std::max(max_entries, sim.calendar_entries());
  }
  EXPECT_EQ(sim.events_pending(), 0u);
  EXPECT_LE(max_entries, 128u);  // compaction floor, not O(kTimeouts)
  EXPECT_LE(sim.calendar_entries(), 128u);
  sim.run();  // whatever remains must drain without firing anything
  EXPECT_EQ(sim.events_dispatched(), 0u);
}

TEST(SimulationSemantics, CancelHeavyMixedLoadKeepsCalendarBounded) {
  des::Simulation sim;
  std::uint64_t fired = 0;
  constexpr int kOps = 100'000;
  for (int i = 0; i < kOps; ++i) {
    // One live near event per ten cancelled far timeouts.
    for (int j = 0; j < 10; ++j) {
      const des::EventId t = sim.schedule_at(1e9 + i * 10.0 + j, [] {});
      ASSERT_TRUE(sim.cancel(t));
    }
    sim.schedule_at(static_cast<double>(i), [&] { ++fired; });
  }
  EXPECT_LE(sim.calendar_entries(), 2u * sim.events_pending() + 128u);
  sim.run();
  EXPECT_EQ(fired, static_cast<std::uint64_t>(kOps));
}

// --- calendar differential: wheel + heap + lane vs a sorted reference ---

/// Drives one Simulation with random operations and mirrors every pending
/// event's (time, seq) key in a std::set.  Each callback checks that it is
/// the reference minimum, so any reordering by the wheel, the heap, the
/// immediate lane or their merge fails at the first misplaced event.
/// Oracle processes add slot-free coroutine resumes to the same calendar:
/// they co_await delays drawn like the events' and wake each other
/// through a trigger, and each resume checks the reference minimum too.
class CalendarOracle {
 public:
  using Key = std::pair<SimTime, std::uint64_t>;

  explicit CalendarOracle(std::uint64_t seed) : rng_(seed) {}

  des::Simulation sim;
  std::uint64_t mismatches = 0;
  std::uint64_t fired = 0;  ///< dispatches checked, resumes included
  std::uint64_t resumes = 0;
  std::uint64_t compactions = 0;

  /// A delay from one of the calendar's regimes: same time (the lane),
  /// the next few cycles, anywhere in the wheel's window, fractional
  /// times, and beyond the window (the heap).
  SimTime draw_delay() {
    switch (rng_.uniform_int(0, 4)) {
      case 0:
        return 0.0;
      case 1:
        return static_cast<SimTime>(rng_.uniform_int(1, 3));
      case 2:
        return static_cast<SimTime>(rng_.uniform_int(0, 300));
      case 3:
        return rng_.uniform(0.0, 40.0);
      default:
        return 1000.0 + static_cast<SimTime>(rng_.uniform_int(1, 4000));
    }
  }

  void schedule(SimTime at) {
    const des::EventId id = sim.schedule_at(at, [this] { fire(); });
    track(id, {at, next_seq_++});
  }

  void reserve() {
    if (sim.allocate_seq() != next_seq_) ++mismatches;
    reserved_.push_back(next_seq_++);
  }

  /// Schedules under a reserved (older) key, as the packet network does.
  void schedule_reserved() {
    if (reserved_.empty()) return;
    const std::size_t pick = rng_.uniform_int(0, reserved_.size() - 1);
    const std::uint64_t seq = reserved_[pick];
    reserved_[pick] = reserved_.back();
    reserved_.pop_back();
    SimTime delay = draw_delay();
    if (delay == 0.0) delay = 0.5;  // keyed events are strictly future
    const SimTime at = sim.now() + delay;
    const des::EventId id =
        sim.schedule_static_at_seq(at, seq, &fire_static, this, 0, 0);
    track(id, {at, seq});
  }

  /// Starts an oracle process; its first resume is the spawn's.
  void spawn_process() {
    pending_.insert({sim.now(), next_seq_++});
    sim.spawn(oracle_process(static_cast<int>(rng_.uniform_int(1, 6))));
  }

  /// Wakes every process waiting on the trigger, in wait order.
  void wake_waiters() {
    for (std::size_t i = 0; i < trigger_.waiting(); ++i) {
      pending_.insert({sim.now(), next_seq_++});
    }
    trigger_.fire(/*latch=*/false);
  }

  /// Cancels a random id (possibly one already dispatched).
  void cancel_one() {
    if (ids_.empty()) return;
    std::swap(ids_[rng_.uniform_int(0, ids_.size() - 1)], ids_.back());
    cancel_newest();
  }

  /// Schedules a burst and cancels most of it: stale entries come to
  /// outnumber live ones, which compacts the calendar.
  void cancel_burst() {
    for (int i = 0; i < 80; ++i) schedule(sim.now() + draw_delay());
    for (int i = 0; i < 70; ++i) cancel_newest();
  }

  void run_slice() {
    const SimTime horizon = sim.now() + rng_.uniform(0.0, 60.0);
    sim.run_until(horizon);
    if (!pending_.empty() && pending_.begin()->first <= horizon) ++mismatches;
    if (sim.now() != horizon) ++mismatches;
  }

  void step() {
    const std::uint64_t before = fired;
    const bool expected = !pending_.empty();
    if (sim.step() != expected) ++mismatches;
    if (fired != before + (expected ? 1 : 0)) ++mismatches;
  }

  void drain() {
    sim.run();
    if (!pending_.empty() || sim.events_pending() != 0) ++mismatches;
    if (sim.events_dispatched() != fired) ++mismatches;
  }

  /// One random operation (the callbacks add nested scheduling).
  void random_op() {
    const double r = rng_.uniform();
    if (r < 0.30) {
      schedule(sim.now() + draw_delay());
    } else if (r < 0.33) {
      spawn_process();
    } else if (r < 0.35) {
      wake_waiters();
    } else if (r < 0.45) {
      reserve();
    } else if (r < 0.55) {
      schedule_reserved();
    } else if (r < 0.68) {
      cancel_one();
    } else if (r < 0.72) {
      cancel_burst();
    } else if (r < 0.88) {
      run_slice();
    } else {
      step();
    }
  }

 private:
  static void fire_static(void* ctx, std::uint64_t, std::uint64_t) {
    static_cast<CalendarOracle*>(ctx)->fire();
  }

  void fire() {
    check_order();
    // Nested scheduling from inside dispatch: same-time events land in
    // the immediate lane behind calendar entries at now().
    if (rng_.uniform() < 0.45) schedule(sim.now() + draw_delay());
    if (rng_.uniform() < 0.05) wake_waiters();
  }

  void check_resume() {
    ++resumes;
    check_order();
  }

  /// Checks that the dispatch under way is the reference minimum.
  void check_order() {
    ++fired;
    const Key got{sim.now(), sim.current_dispatch_seq()};
    if (pending_.empty() || *pending_.begin() != got) {
      ++mismatches;
      pending_.erase(got);
    } else {
      pending_.erase(pending_.begin());
    }
  }

  des::Process oracle_process(int rounds) {
    check_resume();
    for (int i = 0; i < rounds; ++i) {
      if (rng_.uniform() < 0.3) {
        co_await trigger_.wait();
      } else {
        const SimTime delay = draw_delay();
        pending_.insert({sim.now() + delay, next_seq_++});
        co_await des::delay(sim, delay);
      }
      check_resume();
      if (rng_.uniform() < 0.3) wake_waiters();
      if (rng_.uniform() < 0.3) schedule(sim.now() + draw_delay());
    }
  }

  void track(des::EventId id, Key key) {
    pending_.insert(key);
    ids_.push_back({id, key});
  }

  void cancel_newest() {
    const auto [id, key] = ids_.back();
    ids_.pop_back();
    const std::size_t stale_before = sim.stale_calendar_entries();
    const bool was_pending = pending_.erase(key) == 1;
    if (sim.cancel(id) != was_pending) ++mismatches;
    if (was_pending && sim.stale_calendar_entries() <= stale_before) {
      ++compactions;
    }
  }

  Rng rng_;
  des::Trigger trigger_{sim};
  std::set<Key> pending_;
  std::vector<std::pair<des::EventId, Key>> ids_;
  std::vector<std::uint64_t> reserved_;
  std::uint64_t next_seq_ = 1;
};

TEST(CalendarDifferential, RandomOperationsMatchSortedReference) {
  std::uint64_t compactions = 0;
  std::uint64_t resumes = 0;
  for (std::uint64_t trial = 0; trial < 200; ++trial) {
    CalendarOracle oracle(0xca1e0da5ULL + trial);
    // Odd trials also run the kernel's invariant sweep after every
    // operation, so wheel state after run_until peeks and compactions
    // is checked, not only the dispatch order.
    const bool audited = (trial % 2) == 1;
    if (audited) oracle.sim.set_audit(true);
    for (int op = 0; op < 300; ++op) {
      oracle.random_op();
      if (audited) oracle.sim.audit_check_now();
    }
    oracle.drain();
    ASSERT_EQ(oracle.mismatches, 0u) << "trial " << trial;
    EXPECT_GT(oracle.fired, 0u);
    compactions += oracle.compactions;
    resumes += oracle.resumes;
  }
  EXPECT_GT(compactions, 0u);  // the cancel path did compact
  EXPECT_GT(resumes, 1000u);   // and processes shared the calendar
}

TEST(CalendarDifferential, RunUntilPeekDoesNotMoveTheWindow) {
  // run_until(100) looks at the event at 150 and leaves it pending; an
  // event then scheduled inside [now, 150) must still dispatch first.
  des::Simulation sim;
  std::vector<SimTime> order;
  sim.schedule_at(150.0, [&] { order.push_back(sim.now()); });
  sim.run_until(100.0);
  sim.schedule_at(120.0, [&] { order.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(order, (std::vector<SimTime>{120.0, 150.0}));
}

// --- figure pipeline determinism ----------------------------------------

TEST(FigureDeterminism, Fig12BitwiseIdenticalAcrossSweepThreads) {
  core::ParcelFigureConfig cfg;
  cfg.base.horizon = 4'000.0;
  cfg.base.round_trip_latency = 200.0;
  cfg.base.p_remote = 0.2;
  cfg.base.seed = 7;
  cfg.parallelism = {1, 4, 16};
  cfg.node_counts = {4, 16};
  auto render = [&](std::size_t threads) {
    core::ParcelFigureConfig c = cfg;
    c.sweep_threads = threads;
    std::ostringstream os;
    core::make_fig12(c).print_csv(os);
    return os.str();
  };
  const std::string serial = render(1);
  EXPECT_EQ(serial, render(3));
  EXPECT_EQ(serial, render(8));
  EXPECT_FALSE(serial.empty());
}

// --- determinism audit mode (des/audit.hpp) ------------------------------

/// An audited kernel workload long enough to cross checkpoint windows;
/// `first_time` perturbs the very first dispatched event.
des::AuditLog audited_workload(double first_time) {
  des::Simulation sim;
  sim.set_audit(true);
  sim.schedule_at(first_time, [] {});
  for (int i = 0; i < 1500; ++i) {
    sim.schedule_at(10.0 + i, [] {});
  }
  sim.run();
  EXPECT_TRUE(sim.audit_enabled());
  return *sim.audit_log();
}

TEST(AuditMode, ChainIsIdenticalAcrossReruns) {
  const des::AuditLog a = audited_workload(1.0);
  const des::AuditLog b = audited_workload(1.0);
  EXPECT_EQ(a.events(), 1501u);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.checkpoints(), b.checkpoints());
  EXPECT_FALSE(des::first_divergence(a, b).has_value());
}

TEST(AuditMode, DivergenceIsLocalizedToTheFirstDifferingWindow) {
  const des::AuditLog a = audited_workload(1.0);
  const des::AuditLog c = audited_workload(2.0);  // event 0 differs
  EXPECT_NE(a.hash(), c.hash());
  const auto div = des::first_divergence(a, c);
  ASSERT_TRUE(div.has_value());
  EXPECT_EQ(*div, 0u);  // start of the first checkpoint window
}

TEST(AuditMode, InvariantSweepCatchesInjectedHeapCorruption) {
  des::Simulation sim;
  sim.set_audit(true);
  for (int i = 0; i < 8; ++i) {
    sim.schedule_at(1.0 + i, [] {});
  }
  sim.audit_check_now();  // healthy kernel: no throw
  sim.corrupt_heap_for_test();
  EXPECT_THROW(sim.audit_check_now(), LogicError);
  // The amortized sweep inside dispatch catches it too.
  EXPECT_THROW(sim.run(), LogicError);
}

TEST(AuditMode, Fig12RegistryChainIdenticalAcrossSweepThreads) {
  // The env seam is how `pimsim verify audit=1` reaches simulations
  // constructed inside figure generators on sweep worker threads.
  ::setenv("PIMSIM_AUDIT", "1", 1);
  core::ParcelFigureConfig cfg;
  cfg.base.horizon = 2'000.0;
  cfg.base.seed = 7;
  cfg.parallelism = {1, 4};
  cfg.node_counts = {4};
  auto chain_of = [&](std::size_t threads) {
    core::ParcelFigureConfig c = cfg;
    c.sweep_threads = threads;
    des::AuditRegistry::global().reset();
    std::ostringstream os;
    core::make_fig12(c).print_csv(os);
    return des::AuditRegistry::global().snapshot();
  };
  const auto serial = chain_of(1);
  const auto parallel = chain_of(3);
  ::unsetenv("PIMSIM_AUDIT");
  EXPECT_GT(serial.simulations, 0u);
  EXPECT_GT(serial.events, 0u);
  EXPECT_TRUE(serial == parallel);
  EXPECT_EQ(serial.combined, parallel.combined);
}

}  // namespace
}  // namespace pimsim
