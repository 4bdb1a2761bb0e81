#include "des/resource.hpp"

#include "common/error.hpp"

namespace pimsim::des {

Resource::Resource(Simulation& sim, std::size_t capacity, std::string name)
    : sim_(sim), capacity_(capacity), name_(std::move(name)) {
  require(capacity > 0, "Resource '" + name_ + "': capacity must be positive");
}

bool Resource::AcquireAwaitable::await_ready() {
  Resource& r = resource_;
  if (r.queue_.empty() && r.capacity_ - r.in_use_ >= n_) {
    r.grant(n_, r.sim_.now());
    return true;
  }
  return false;
}

void Resource::AcquireAwaitable::await_suspend(std::coroutine_handle<> h) {
  Resource& r = resource_;
  r.queue_.push_back(Waiter{h, n_, r.sim_.now()});
  r.queued_.set(r.sim_.now(), static_cast<double>(r.queue_.size()));
  // tracing_enabled() first: the mistake mailbox.hpp warns about — the
  // label lookup is not free on a hot path.
  if (r.sim_.tracing_enabled()) {
    r.sim_.trace(TraceKind::kResourceEnqueued, r.trace_label());
  }
}

Resource::AcquireAwaitable Resource::acquire(std::size_t n) {
  // Failure messages are built lazily: acquire/release are hot paths.
  require(n > 0,
          [&] { return "Resource '" + name_ + "': acquire of zero units"; });
  require(n <= capacity_, [&] {
    return "Resource '" + name_ + "': request exceeds capacity (deadlock)";
  });
  return AcquireAwaitable(*this, n);
}

bool Resource::try_acquire(std::size_t n) {
  require(n > 0 && n <= capacity_,
          [&] { return "Resource '" + name_ + "': bad try_acquire"; });
  if (!queue_.empty() || capacity_ - in_use_ < n) return false;
  grant(n, sim_.now());
  return true;
}

void Resource::grant(std::size_t n, SimTime enqueued_at) {
  in_use_ += n;
  ++grants_;
  wait_.add(sim_.now() - enqueued_at);
  busy_.set(sim_.now(), static_cast<double>(in_use_));
  if (sim_.tracing_enabled()) sim_.trace(TraceKind::kResourceAcquire, trace_label());
}

void Resource::release(std::size_t n) {
  ensure(n <= in_use_, [&] {
    return "Resource '" + name_ + "': release of more units than in use";
  });
  in_use_ -= n;
  busy_.set(sim_.now(), static_cast<double>(in_use_));
  if (sim_.tracing_enabled()) sim_.trace(TraceKind::kResourceRelease, trace_label());
  drain_queue();
}

void Resource::drain_queue() {
  // Strict FIFO: stop at the first waiter that does not fit.  Each grant
  // wake-up is a raw coroutine-resume calendar entry — no allocation.
  while (!queue_.empty() && capacity_ - in_use_ >= queue_.front().n) {
    const Waiter w = queue_.front();
    queue_.pop_front();
    queued_.set(sim_.now(), static_cast<double>(queue_.size()));
    grant(w.n, w.enqueued_at);
    sim_.resume_soon(w.handle);
  }
}

double Resource::utilization() const {
  const double cap = static_cast<double>(capacity_);
  return busy_.mean(sim_.now()) / cap;
}

double Resource::mean_queue_length() const { return queued_.mean(sim_.now()); }

}  // namespace pimsim::des
