// FIFO queue for the kernel's waiter and message queues and the packet
// network's per-link segment queues.
//
// A power-of-two ring over one vector that never gives memory back: once
// it has grown to its peak length, pushing and popping allocate nothing.
// (std::deque frees and reallocates a node every 512 bytes of traffic,
// which a steady request stream pays over and over.)  A popped slot keeps
// its moved-from T until it is reused.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace pimsim::des {

template <typename T>
class Fifo {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] T& front() { return buf_[head_]; }
  [[nodiscard]] const T& front() const { return buf_[head_]; }
  [[nodiscard]] T& back() {
    return buf_[(head_ + size_ - 1) & (buf_.size() - 1)];
  }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    buf_[(head_ + size_) & (buf_.size() - 1)] = std::move(value);
    ++size_;
  }

  void pop_front() {
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
  }

 private:
  void grow() {
    std::vector<T> bigger(buf_.empty() ? 8 : 2 * buf_.size());
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(buf_[(head_ + i) & (buf_.size() - 1)]);
    }
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace pimsim::des
