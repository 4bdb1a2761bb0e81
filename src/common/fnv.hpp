// FNV-1a 64, the one hash behind every fingerprint in the simulator: the
// scenario verify pins, sweep chunk and grid fingerprints, the metrics
// registry fingerprint, the event kernel's audit chain and the packet
// network's golden delivery hashes.
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace pimsim {

inline constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// The standard FNV-1a 64 offset basis.  Starts the des::AuditLog event
/// chain and the interconnect golden delivery hashes.
inline constexpr std::uint64_t kFnvOffset = 14695981039346656037ULL;

/// The standard basis with its last decimal digit dropped.  Starts
/// core::data_fingerprint (and so every pinned scenario fingerprint,
/// chunk and grid fingerprint) and obs::MetricsRegistry::fingerprint.
/// Not a typo to fix: changing either basis changes every value pinned
/// against it (docs/DETERMINISM.md).
inline constexpr std::uint64_t kFnvOffsetShort = 1469598103934665603ULL;

/// FNV-1a over `bytes`, chained onto `h`.
[[nodiscard]] constexpr std::uint64_t fnv1a(std::uint64_t h,
                                            std::string_view bytes) {
  for (const char c : bytes) {
    h = (h ^ static_cast<unsigned char>(c)) * kFnvPrime;
  }
  return h;
}

/// fnv1a(h, blocks[i]) for every block, in order.  A chain is bound by
/// its multiply's latency, so four independent blocks share one loop
/// until the shortest of them ends, and each tail finishes alone.  Every
/// value is bit-identical to fnv1a's.  Defined in fnv.cpp, which keeps
/// this header (included by the event kernel) free of the loop.
[[nodiscard]] std::vector<std::uint64_t> fnv1a_each(
    std::uint64_t h, std::span<const std::string_view> blocks);

/// FNV-1a over the 8 bytes of `word`, least significant first, chained
/// onto `h`.
[[nodiscard]] constexpr std::uint64_t fnv1a_word(std::uint64_t h,
                                                 std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ ((word >> (8 * i)) & 0xffU)) * kFnvPrime;
  }
  return h;
}

}  // namespace pimsim
