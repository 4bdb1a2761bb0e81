// On-chip DRAM macro model (paper Section 2.1).
//
// "A single DRAM macro is typically organized in rows with 2048 bits each.
//  During a read operation, an entire row is latched in a digital row
//  buffer ... data can be paged out of the row buffer to the processing
//  logic in wide words of typically 256 bits.  Assuming a very conservative
//  row access time of 20 ns and a page access time of 2 ns, a single
//  on-chip DRAM macro could sustain a bandwidth of over 50 Gbit/s."
//
// DramMacroSpec captures those constants and the closed-form bandwidth
// arithmetic; DramBank adds open-row (row buffer) state so timing depends
// on the access stream.  Banked, contended memory lives behind the
// MemorySystem seam (contention_memory.hpp), which tracks one DramBank
// per bank.
#pragma once

#include <cstddef>
#include <cstdint>

namespace pimsim::mem {

/// Geometry and timing of one on-chip DRAM macro.
struct DramMacroSpec {
  std::size_t row_bits = 2048;    ///< bits latched per row activation
  std::size_t word_bits = 256;    ///< bits paged out per access
  double row_access_ns = 20.0;    ///< activation (row) access time
  double page_access_ns = 2.0;    ///< page-out time per wide word

  /// Validates geometry/timing; throws ConfigError if inconsistent.
  void validate() const;

  /// Wide words held by one row (row_bits / word_bits).
  [[nodiscard]] std::size_t words_per_row() const;

  /// Time to activate a row and stream out all of its words (ns).
  [[nodiscard]] double row_drain_ns() const;

  /// Sustained bandwidth when rows are drained back-to-back (Gbit/s).
  /// This is the paper's "over 50 Gbit/s" figure.
  [[nodiscard]] double sustained_bandwidth_gbps() const;

  /// Peak page-out (row-buffer hit) bandwidth (Gbit/s).
  [[nodiscard]] double burst_bandwidth_gbps() const;

  /// Chip-level peak bandwidth with `nodes` independent macros (Gbit/s).
  /// The paper: "an on-chip peak memory bandwidth of greater than
  /// 1 Tbit/s is possible per chip".
  [[nodiscard]] double chip_bandwidth_gbps(std::size_t nodes) const;
};

/// One DRAM bank with open-row (row-buffer) state.
///
/// Timing-only model: access() returns the latency of the access and
/// updates the open row; callers advance simulated time themselves.
class DramBank {
 public:
  explicit DramBank(DramMacroSpec spec = {});

  /// Latency in ns of reading `row`; opens that row.
  [[nodiscard]] double access_ns(std::uint64_t row);

  /// Latency without the row-buffer (always pays the row access): the
  /// "conventional path" a cacheless off-chip access would take.
  [[nodiscard]] double closed_page_access_ns() const;

  [[nodiscard]] bool row_open(std::uint64_t row) const;
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] double hit_rate() const;
  [[nodiscard]] const DramMacroSpec& spec() const { return spec_; }

  void reset_stats();

 private:
  DramMacroSpec spec_;
  std::uint64_t open_row_ = 0;
  bool any_open_ = false;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace pimsim::mem
