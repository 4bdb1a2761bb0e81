// Coroutine process model for the simulation kernel.
//
// A model process is a C++20 coroutine returning des::Process.  Inside the
// body, the process advances simulated time and synchronizes with other
// processes by co_await-ing kernel awaitables:
//
//   des::Process worker(des::Simulation& sim, Resource& cpu) {
//     co_await des::delay(sim, 10.0);        // advance 10 cycles
//     co_await cpu.acquire();                // queue for a server
//     co_await des::delay(sim, 5.0);         // hold it for 5 cycles
//     cpu.release();
//   }
//
// Lifetime rules:
//  * a Process not passed to Simulation::spawn destroys its frame on
//    destruction (nothing ran: processes start suspended);
//  * once spawned, the Simulation owns the frame; it is destroyed when the
//    body finishes or when the Simulation is destroyed;
//  * exceptions escaping a process body are captured and rethrown from
//    Simulation::run()/run_until()/step().
//
// Frames come from a per-thread size-class free list (frame_alloc /
// frame_free), so a spawn costs no heap allocation once the thread has
// freed a frame of that size.  A frame may be freed on any thread; its
// block joins that thread's list.  The lists are returned to the heap
// when their thread exits, and a frame freed after that goes straight to
// ::operator delete.  Completion state for join() is allocated only when
// join() is called.
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <memory>
#include <utility>
#include <vector>

#include "common/units.hpp"
#include "des/simulation.hpp"

namespace pimsim::des {

/// Process frame storage: a block of at least `size` bytes from the
/// calling thread's free list for that size class, or the heap when the
/// list is empty (or `size` is above the largest class).
void* frame_alloc(std::size_t size);
/// Returns a block from frame_alloc(size) to the calling thread's list.
void frame_free(void* block, std::size_t size) noexcept;

/// Handle to a coroutine-based model process (move-only).
class Process {
 public:
  /// Completion state shared between the frame and join() awaitables;
  /// created by the first join().
  struct State {
    bool done = false;
    std::vector<std::coroutine_handle<>> joiners;
  };

  struct promise_type;
  using handle_type = std::coroutine_handle<promise_type>;

  struct FinalAwaiter {
    bool await_ready() const noexcept { return false; }
    void await_suspend(handle_type h) noexcept {
      // The frame is suspended at its final point: mark completion, wake
      // joiners through the calendar, then free the frame.
      promise_type& promise = h.promise();
      if (promise.state) {
        promise.state->done = true;
        for (auto j : promise.state->joiners) promise.sim->resume_soon(j);
        promise.state->joiners.clear();
      }
      promise.sim->unregister_process(promise.live_pos);
      h.destroy();
    }
    void await_resume() const noexcept {}
  };

  struct promise_type {
    /// The owning simulation, set by spawn (a frame runs only once
    /// spawned).
    Simulation* sim = nullptr;
    /// Join state, or null while nobody has called join().
    std::shared_ptr<State> state;
    /// Index of this frame in the Simulation's live-process registry,
    /// kept current by the kernel (see Simulation::register_process).
    std::size_t live_pos = 0;

    static void* operator new(std::size_t size) { return frame_alloc(size); }
    static void operator delete(void* frame, std::size_t size) noexcept {
      frame_free(frame, size);
    }

    Process get_return_object() {
      return Process(handle_type::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    FinalAwaiter final_suspend() noexcept { return {}; }
    void return_void() noexcept {}
    void unhandled_exception() {
      sim->set_pending_exception(std::current_exception());
    }
  };

  /// Awaitable returned by join(): resumes the awaiter when this process ends.
  class [[nodiscard]] JoinAwaitable {
   public:
    explicit JoinAwaitable(std::shared_ptr<State> state)
        : state_(std::move(state)) {}
    bool await_ready() const noexcept { return state_->done; }
    void await_suspend(std::coroutine_handle<> h) {
      state_->joiners.push_back(h);
    }
    void await_resume() const noexcept {}

   private:
    std::shared_ptr<State> state_;
  };

  Process(Process&& other) noexcept
      : handle_(std::exchange(other.handle_, nullptr)) {}
  Process& operator=(Process&& other) noexcept {
    if (this != &other) {
      destroy_if_unspawned();
      handle_ = std::exchange(other.handle_, nullptr);
    }
    return *this;
  }
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;
  ~Process() { destroy_if_unspawned(); }

  /// Awaitable that completes when the process body finishes.  Call it
  /// before spawning; the awaitable stays valid after the process ends.
  [[nodiscard]] JoinAwaitable join() const {
    ensure(static_cast<bool>(handle_),
           "Process::join: the process was already spawned or moved");
    std::shared_ptr<State>& state = handle_.promise().state;
    if (!state) state = std::make_shared<State>();
    return JoinAwaitable(state);
  }

  /// Used by Simulation::spawn: transfers frame ownership to the kernel.
  handle_type release_for_spawn(Simulation& sim) {
    handle_.promise().sim = &sim;
    sim.register_process(handle_, handle_.promise().live_pos);
    return std::exchange(handle_, nullptr);
  }

 private:
  explicit Process(handle_type h) : handle_(h) {}

  /// Still holding the frame means it was never spawned: nothing ran.
  void destroy_if_unspawned() {
    if (handle_) handle_.destroy();
    handle_ = nullptr;
  }

  handle_type handle_ = nullptr;
};

/// Awaitable that advances the awaiting process by `delay` cycles.
class [[nodiscard]] DelayAwaitable {
 public:
  DelayAwaitable(Simulation& sim, Cycles delay) : sim_(sim), delay_(delay) {}
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    // Allocation-free: the calendar entry holds the frame address.
    sim_.resume_in(delay_, h);
  }
  void await_resume() const noexcept {}

 private:
  Simulation& sim_;
  Cycles delay_;
};

/// co_await delay(sim, t): suspend for t >= 0 cycles of simulated time.
[[nodiscard]] inline DelayAwaitable delay(Simulation& sim, Cycles t) {
  return DelayAwaitable(sim, t);
}

/// co_await yield(sim): reschedule behind already-pending same-time events.
[[nodiscard]] inline DelayAwaitable yield(Simulation& sim) {
  return DelayAwaitable(sim, 0.0);
}

/// Broadcast trigger: processes co_await wait(); fire() wakes all of them,
/// in wait order.  The first waiter is held inline, so a trigger with one
/// waiter (a request awaiting its reply) never allocates.
class Trigger {
 public:
  explicit Trigger(Simulation& sim) : sim_(sim) {}

  class [[nodiscard]] WaitAwaitable {
   public:
    explicit WaitAwaitable(Trigger& trigger) : trigger_(trigger) {}
    bool await_ready() const noexcept { return trigger_.fired_; }
    void await_suspend(std::coroutine_handle<> h) {
      if (trigger_.first_) {
        trigger_.rest_.push_back(h);
      } else {
        trigger_.first_ = h;
      }
    }
    void await_resume() const noexcept {}

   private:
    Trigger& trigger_;
  };

  /// Awaitable that completes when fire() is called (immediately if already
  /// fired and the trigger is latched).
  [[nodiscard]] WaitAwaitable wait() { return WaitAwaitable(*this); }

  /// Wakes all current waiters. With latch=true (default) later waiters
  /// pass straight through; reset() re-arms the trigger.
  void fire(bool latch = true) {
    fired_ = latch;
    // Scheduling a wake-up runs no model code, so nothing can wait on
    // this trigger while the waiters are handed over.
    if (!first_) return;  // rest_ fills only behind first_
    sim_.resume_soon(std::exchange(first_, nullptr));
    for (auto h : rest_) sim_.resume_soon(h);
    rest_.clear();
  }

  void reset() { fired_ = false; }
  [[nodiscard]] std::size_t waiting() const {
    return first_ ? 1 + rest_.size() : 0;
  }

 private:
  Simulation& sim_;
  bool fired_ = false;
  std::coroutine_handle<> first_;               // the oldest waiter
  std::vector<std::coroutine_handle<>> rest_;   // later waiters, in order
};

/// Spawns `p` and returns an awaitable for its completion:
///   co_await spawn_join(sim, child(sim, ...));
[[nodiscard]] inline Process::JoinAwaitable spawn_join(Simulation& sim,
                                                       Process p) {
  auto join = p.join();
  sim.spawn(std::move(p));
  return join;
}

/// Countdown latch: completes waiters once count_down() was called n times.
class CountdownLatch {
 public:
  CountdownLatch(Simulation& sim, std::size_t count)
      : trigger_(sim), remaining_(count) {
    if (remaining_ == 0) trigger_.fire();
  }

  void count_down() {
    if (remaining_ == 0) return;
    if (--remaining_ == 0) trigger_.fire();
  }

  [[nodiscard]] auto wait() { return trigger_.wait(); }
  [[nodiscard]] std::size_t remaining() const { return remaining_; }

 private:
  Trigger trigger_;
  std::size_t remaining_;
};

}  // namespace pimsim::des
