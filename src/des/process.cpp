// The process frame pool, plus the kernel fast-path size contracts.
#include "des/process.hpp"

#include <sanitizer/asan_interface.h>

#include <array>
#include <cstdint>
#include <new>
#include <vector>

namespace pimsim::des {

// The common scheduling payloads must stay on the no-allocation paths:
// the parcel transport thunk (mailbox pointer + wire-format byte vector)
// must fit the inline buffer rather than spill to a heap box.
// (Oversized callables — e.g. std::function on ABIs where it exceeds
// kInlineSize — still work via the boxed fallback.)
static_assert(sizeof(void*) + sizeof(std::vector<std::uint8_t>) <=
                  EventAction::kInlineSize,
              "the parcel ship() thunk must use the inline small buffer");
static_assert(std::is_nothrow_move_constructible_v<EventAction>,
              "slot-pool growth relies on noexcept EventAction relocation");

namespace {

// Size classes are multiples of kGranule up to kMaxPooled bytes; larger
// frames go to the heap every time.  Model frames are a few hundred
// bytes, so a handful of classes see all the traffic.
constexpr std::size_t kGranule = 16;
constexpr std::size_t kMaxPooled = 1024;
constexpr std::size_t kClasses = kMaxPooled / kGranule + 1;

/// A pooled block while it is free: the next block of its class.
struct FreeBlock {
  FreeBlock* next;
};

/// One thread's free lists.  Trivially destructible and constant
/// initialized, so every access is a plain TLS load; the Reaper below
/// returns the blocks to the heap when the thread exits.
struct FreeLists {
  std::array<FreeBlock*, kClasses> head{};
  enum class State : std::uint8_t { kUnarmed, kArmed, kRetired };
  State state = State::kUnarmed;
};
// lint:allow(mutable-static): frame storage, never read by model code
constinit thread_local FreeLists t_lists;

struct Reaper {
  Reaper() = default;
  Reaper(const Reaper&) = delete;
  Reaper& operator=(const Reaper&) = delete;
  ~Reaper() {
    for (std::size_t c = 1; c < kClasses; ++c) {
      while (FreeBlock* block = t_lists.head[c]) {
        ASAN_UNPOISON_MEMORY_REGION(block, c * kGranule);
        t_lists.head[c] = block->next;
        ::operator delete(block);
      }
    }
    // Frames freed from here on (by later thread-exit destructors) go
    // straight back to the heap.
    t_lists.state = FreeLists::State::kRetired;
  }
};

/// Registers this thread's Reaper; called once, before the first block
/// enters a list.
void arm() {
  // lint:allow(mutable-static): frees this thread's blocks at its exit
  static thread_local Reaper reaper;
  (void)reaper;
  t_lists.state = FreeLists::State::kArmed;
}

std::size_t size_class(std::size_t size) {
  return (size + kGranule - 1) / kGranule;
}

}  // namespace

void* frame_alloc(std::size_t size) {
  const std::size_t c = size_class(size);
  if (c >= kClasses) return ::operator new(size);
  if (FreeBlock* block = t_lists.head[c]) {
    ASAN_UNPOISON_MEMORY_REGION(block, c * kGranule);
    t_lists.head[c] = block->next;
    return block;
  }
  return ::operator new(c * kGranule);
}

void frame_free(void* block, std::size_t size) noexcept {
  const std::size_t c = size_class(size);
  if (c >= kClasses || t_lists.state == FreeLists::State::kRetired) {
    ::operator delete(block);
    return;
  }
  if (t_lists.state == FreeLists::State::kUnarmed) arm();
  auto* free_block = static_cast<FreeBlock*>(block);
  free_block->next = t_lists.head[c];
  t_lists.head[c] = free_block;
  // A use of a freed frame is still reported under ASan (no-op elsewhere).
  ASAN_POISON_MEMORY_REGION(block, c * kGranule);
}

}  // namespace pimsim::des
