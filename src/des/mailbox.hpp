// Awaitable message channel between processes (unbounded FIFO).
//
// This is the kernel primitive the parcel models are built on: a node's
// input queue is a Mailbox<Parcel>.  send() never blocks; receive() is an
// awaitable that completes when a message is available.
//
// Invariant: the item queue and the waiter queue are never simultaneously
// non-empty (sends hand messages straight to the oldest waiter).
#pragma once

#include <coroutine>
#include <optional>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "des/fifo.hpp"
#include "des/simulation.hpp"

namespace pimsim::des {

template <typename T>
class Mailbox {
 public:
  explicit Mailbox(Simulation& sim, std::string name = "mailbox")
      : sim_(sim), name_(std::move(name)) {}

  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  class [[nodiscard]] ReceiveAwaitable {
   public:
    explicit ReceiveAwaitable(Mailbox& box) : box_(box) {}

    bool await_ready() {
      if (box_.items_.empty()) return false;
      slot_ = std::move(box_.items_.front());
      box_.items_.pop_front();
      return true;
    }
    void await_suspend(std::coroutine_handle<> h) {
      box_.waiters_.push_back(Waiter{h, &slot_});
    }
    T await_resume() {
      // Message built only on failure: receive is a hot path.
      ensure(slot_.has_value(), [this] {
        return "Mailbox '" + box_.name_ +
               "': resumed receiver without a message";
      });
      if (box_.sim_.tracing_enabled()) {
        box_.sim_.trace(TraceKind::kMailboxReceive, box_.trace_label());
      }
      return std::move(*slot_);
    }

   private:
    friend class Mailbox;
    Mailbox& box_;
    std::optional<T> slot_;
  };

  /// Deposits a message; wakes the oldest waiting receiver, if any.
  /// Allocation-free when a receiver is waiting: the message moves
  /// straight into the receiver's frame and the wake-up is a
  /// coroutine-resume calendar entry, which takes no event slot.
  void send(T value) {
    // tracing_enabled() first: trace() itself is an inline branch, but
    // the lazy label interning is not free on a path this hot.
    if (sim_.tracing_enabled()) sim_.trace(TraceKind::kMailboxSend, trace_label());
    if (!waiters_.empty()) {
      const Waiter w = waiters_.front();
      waiters_.pop_front();
      *w.slot = std::move(value);
      sim_.resume_soon(w.handle);
    } else {
      items_.push_back(std::move(value));
    }
  }

  /// Awaitable yielding the next message (FIFO among messages and waiters).
  [[nodiscard]] ReceiveAwaitable receive() { return ReceiveAwaitable(*this); }

  /// Non-blocking receive.
  [[nodiscard]] std::optional<T> try_receive() {
    if (items_.empty()) return std::nullopt;
    T v = std::move(items_.front());
    items_.pop_front();
    return v;
  }

  [[nodiscard]] std::size_t pending() const { return items_.size(); }
  [[nodiscard]] std::size_t waiting_receivers() const { return waiters_.size(); }
  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  struct Waiter {
    std::coroutine_handle<> handle;
    std::optional<T>* slot;
  };

  /// Interns the mailbox name on first traced use (only reached behind a
  /// tracing_enabled() check, so the id is valid for the active tracer).
  [[nodiscard]] LabelId trace_label() const {
    if (trace_label_ == kLabelUninterned) trace_label_ = sim_.trace_label(name_);
    return trace_label_;
  }

  Simulation& sim_;
  std::string name_;
  mutable LabelId trace_label_ = kLabelUninterned;
  Fifo<T> items_;
  Fifo<Waiter> waiters_;
};

}  // namespace pimsim::des
