// Cache models for the heavyweight processor.
//
// The paper's queuing model treats the HWP cache statistically: each
// load/store misses with fixed probability Pmiss = 0.1 (Table 1), drawn
// in the HWP model itself (arch/hwp.cpp).  SetAssocCache is a structural
// set-associative LRU cache simulator used to *ground* the Pmiss
// parameter: running the synthetic access patterns in
// workload/access_pattern.hpp through it shows which kinds of streams
// produce hit rates near 0.9 (high temporal locality) versus near 0
// (the traffic the paper routes to PIM).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pimsim::mem {

/// Outcome of a cache access.
enum class CacheOutcome : std::uint8_t { kHit, kMiss };

/// Geometry of a structural cache.
struct CacheGeometry {
  std::size_t size_bytes = 1 << 20;  ///< total capacity
  std::size_t line_bytes = 64;       ///< block size
  std::size_t ways = 4;              ///< associativity

  void validate() const;
  [[nodiscard]] std::size_t sets() const;
};

/// Set-associative LRU cache simulator (tags only, no data).
class SetAssocCache {
 public:
  explicit SetAssocCache(CacheGeometry geometry);

  /// Simulates an access to byte address `addr`; updates LRU state.
  CacheOutcome access(std::uint64_t addr);

  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] double miss_rate() const;
  [[nodiscard]] const CacheGeometry& geometry() const { return geometry_; }

  void reset_stats();
  /// Invalidates all lines (cold cache) and clears statistics.
  void flush();

 private:
  struct Line {
    std::uint64_t tag = 0;
    std::uint64_t lru = 0;  ///< last-use stamp; smaller = older
    bool valid = false;
  };

  CacheGeometry geometry_;
  std::vector<Line> lines_;  ///< sets() * ways, row-major by set
  std::uint64_t stamp_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace pimsim::mem
