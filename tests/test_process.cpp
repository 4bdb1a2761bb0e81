// Tests for the coroutine process layer.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "des/process.hpp"
#include "des/simulation.hpp"

namespace pimsim::des {
namespace {

Process sleeper(Simulation& sim, Cycles t, double* finished_at) {
  co_await delay(sim, t);
  *finished_at = sim.now();
}

TEST(Process, DelayAdvancesTime) {
  Simulation sim;
  double finished = -1.0;
  sim.spawn(sleeper(sim, 25.0, &finished));
  sim.run();
  EXPECT_DOUBLE_EQ(finished, 25.0);
  EXPECT_EQ(sim.live_processes(), 0u);
}

TEST(Process, BodyDoesNotRunInsideSpawn) {
  Simulation sim;
  double finished = -1.0;
  sim.spawn(sleeper(sim, 0.0, &finished));
  EXPECT_DOUBLE_EQ(finished, -1.0);  // starts only when the calendar runs
  sim.run();
  EXPECT_DOUBLE_EQ(finished, 0.0);
}

Process chain_delays(Simulation& sim, std::vector<double>* times) {
  for (int i = 0; i < 5; ++i) {
    co_await delay(sim, 10.0);
    times->push_back(sim.now());
  }
}

TEST(Process, SequentialDelaysAccumulate) {
  Simulation sim;
  std::vector<double> times;
  sim.spawn(chain_delays(sim, &times));
  sim.run();
  EXPECT_EQ(times, (std::vector<double>{10, 20, 30, 40, 50}));
}

TEST(Process, UnspawnedProcessIsDestroyedSafely) {
  Simulation sim;
  double finished = -1.0;
  {
    Process p = sleeper(sim, 5.0, &finished);
    EXPECT_EQ(sim.live_processes(), 0u);  // not registered until spawned
  }  // dropped without spawning
  sim.run();
  EXPECT_DOUBLE_EQ(finished, -1.0);
}

Process joiner(Simulation& sim, Process::JoinAwaitable join, double* joined_at) {
  co_await join;
  *joined_at = sim.now();
}

TEST(Process, JoinWaitsForCompletion) {
  Simulation sim;
  double finished = -1.0, joined = -1.0;
  Process worker = sleeper(sim, 30.0, &finished);
  sim.spawn(joiner(sim, worker.join(), &joined));
  sim.spawn(std::move(worker));
  sim.run();
  EXPECT_DOUBLE_EQ(finished, 30.0);
  EXPECT_DOUBLE_EQ(joined, 30.0);
}

TEST(Process, JoinOnFinishedProcessIsImmediate) {
  Simulation sim;
  double finished = -1.0;
  Process worker = sleeper(sim, 1.0, &finished);
  auto join = worker.join();
  sim.spawn(std::move(worker));
  sim.run();
  double joined = -1.0;
  sim.spawn(joiner(sim, std::move(join), &joined));
  sim.run();
  EXPECT_DOUBLE_EQ(joined, 1.0);  // completes at current time, no extra delay
}

TEST(Process, JoinNeedsTheUnspawnedHandle) {
  Simulation sim;
  double finished = -1.0;
  Process worker = sleeper(sim, 1.0, &finished);
  Process moved = std::move(worker);
  EXPECT_THROW((void)worker.join(), LogicError);  // NOLINT(bugprone-use-after-move)
  sim.spawn(std::move(moved));
  sim.run();
  EXPECT_DOUBLE_EQ(finished, 1.0);
}

Process spawn_join_parent(Simulation& sim, double* child_done, double* parent_done) {
  co_await spawn_join(sim, sleeper(sim, 7.0, child_done));
  *parent_done = sim.now();
}

TEST(Process, SpawnJoinHelper) {
  Simulation sim;
  double child = -1.0, parent = -1.0;
  sim.spawn(spawn_join_parent(sim, &child, &parent));
  sim.run();
  EXPECT_DOUBLE_EQ(child, 7.0);
  EXPECT_DOUBLE_EQ(parent, 7.0);
}

Process thrower(Simulation& sim) {
  co_await delay(sim, 5.0);
  throw std::runtime_error("model failure");
}

TEST(Process, ExceptionsPropagateToRun) {
  Simulation sim;
  sim.spawn(thrower(sim));
  EXPECT_THROW(sim.run(), std::runtime_error);
}

TEST(Process, SimulationDestructionReclaimsLiveProcesses) {
  double finished = -1.0;
  {
    Simulation sim;
    sim.spawn(sleeper(sim, 1000.0, &finished));
    sim.run_until(10.0);  // process still pending
    EXPECT_EQ(sim.live_processes(), 1u);
  }  // must not leak or crash (ASAN would flag a leak)
  EXPECT_DOUBLE_EQ(finished, -1.0);
}

// --- the frame pool (frame_alloc / frame_free) ---------------------------

TEST(FramePool, UnspawnedProcessDestroyedOnAnotherThread) {
  Simulation sim;
  double finished = -1.0;
  Process p = sleeper(sim, 5.0, &finished);
  // The frame was allocated here and is freed into the worker's list,
  // which the worker returns to the heap when it exits.
  std::thread([q = std::move(p)]() mutable { Process dropped = std::move(q); })
      .join();
  sim.spawn(sleeper(sim, 1.0, &finished));
  sim.run();
  EXPECT_DOUBLE_EQ(finished, 1.0);
}

TEST(FramePool, SimulationOutlivesTheWorkerThatRanIt) {
  double finished = -1.0;
  auto sim = std::make_unique<Simulation>();
  std::thread([&] {
    sim->spawn(sleeper(*sim, 1.0, &finished));     // freed on the worker
    sim->spawn(sleeper(*sim, 1000.0, &finished));  // still suspended
    sim->run_until(10.0);
  }).join();
  EXPECT_DOUBLE_EQ(finished, 1.0);
  EXPECT_EQ(sim->live_processes(), 1u);
  sim.reset();  // frees the worker's frame here, after the worker exited
  Simulation again;
  again.spawn(sleeper(again, 2.0, &finished));
  again.run();
  EXPECT_DOUBLE_EQ(finished, 2.0);
}

TEST(FramePool, FrameFreedAfterItsThreadsPoolIsGone) {
  double finished = -1.0;
  std::thread([&finished] {
    // Constructed before this thread's pool is armed, so destroyed after
    // the pool at thread exit: its suspended frame must go straight back
    // to the heap.
    // lint:allow(mutable-static): the thread-exit order is what is tested
    thread_local Simulation late;
    late.spawn(sleeper(late, 1000.0, &finished));
    late.run_until(1.0);
    Simulation sim;  // a finished frame arms the pool
    sim.spawn(sleeper(sim, 1.0, &finished));
    sim.run();
  }).join();
  EXPECT_DOUBLE_EQ(finished, 1.0);
}

Process wait_on(Simulation& sim, Trigger& trigger, double* woke_at) {
  co_await trigger.wait();
  *woke_at = sim.now();
}

TEST(Trigger, FireWakesAllWaiters) {
  Simulation sim;
  Trigger trigger(sim);
  double a = -1.0, b = -1.0;
  sim.spawn(wait_on(sim, trigger, &a));
  sim.spawn(wait_on(sim, trigger, &b));
  sim.schedule_at(12.0, [&] { trigger.fire(); });
  sim.run();
  EXPECT_DOUBLE_EQ(a, 12.0);
  EXPECT_DOUBLE_EQ(b, 12.0);
}

TEST(Trigger, LatchedTriggerPassesLateWaitersThrough) {
  Simulation sim;
  Trigger trigger(sim);
  trigger.fire();
  double woke = -1.0;
  sim.schedule_at(5.0, [&] { sim.spawn(wait_on(sim, trigger, &woke)); });
  sim.run();
  EXPECT_DOUBLE_EQ(woke, 5.0);
}

TEST(Trigger, FireWakesWaitersInWaitOrder) {
  // The first waiter is held inline and the rest in a vector; the wake-up
  // order is the wait order either way, and the trigger is reusable.
  Simulation sim;
  Trigger trigger(sim);
  std::vector<int> order;
  auto waiter = [](Trigger& t, std::vector<int>& out, int id) -> Process {
    co_await t.wait();
    out.push_back(id);
  };
  for (int id = 0; id < 5; ++id) sim.spawn(waiter(trigger, order, id));
  sim.schedule_at(3.0, [&] {
    EXPECT_EQ(trigger.waiting(), 5u);
    trigger.fire(/*latch=*/false);
    EXPECT_EQ(trigger.waiting(), 0u);
  });
  sim.schedule_at(4.0, [&] { sim.spawn(waiter(trigger, order, 5)); });
  sim.schedule_at(5.0, [&] {
    EXPECT_EQ(trigger.waiting(), 1u);
    trigger.fire();
  });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5}));
}

TEST(Trigger, ResetReArms) {
  Simulation sim;
  Trigger trigger(sim);
  trigger.fire();
  trigger.reset();
  double woke = -1.0;
  sim.spawn(wait_on(sim, trigger, &woke));
  sim.schedule_at(9.0, [&] { trigger.fire(); });
  sim.run();
  EXPECT_DOUBLE_EQ(woke, 9.0);
}

Process count_down_later(Simulation& sim, CountdownLatch& latch, Cycles at) {
  co_await delay(sim, at);
  latch.count_down();
}

Process latch_waiter(Simulation& sim, CountdownLatch& latch, double* woke_at) {
  co_await latch.wait();
  *woke_at = sim.now();
}

TEST(CountdownLatch, CompletesAfterNCountdowns) {
  Simulation sim;
  CountdownLatch latch(sim, 3);
  double woke = -1.0;
  sim.spawn(latch_waiter(sim, latch, &woke));
  sim.spawn(count_down_later(sim, latch, 10.0));
  sim.spawn(count_down_later(sim, latch, 20.0));
  sim.spawn(count_down_later(sim, latch, 30.0));
  sim.run();
  EXPECT_DOUBLE_EQ(woke, 30.0);  // the barrier ends at the slowest thread
}

TEST(CountdownLatch, ZeroCountIsImmediatelyOpen) {
  Simulation sim;
  CountdownLatch latch(sim, 0);
  double woke = -1.0;
  sim.spawn(latch_waiter(sim, latch, &woke));
  sim.run();
  EXPECT_DOUBLE_EQ(woke, 0.0);
}

TEST(CountdownLatch, ExtraCountdownsAreIgnored) {
  Simulation sim;
  CountdownLatch latch(sim, 1);
  latch.count_down();
  latch.count_down();  // no underflow
  EXPECT_EQ(latch.remaining(), 0u);
}

}  // namespace
}  // namespace pimsim::des
