#include "memory/dram.hpp"

#include "common/error.hpp"
#include "common/units.hpp"

namespace pimsim::mem {

void DramMacroSpec::validate() const {
  require(row_bits > 0 && word_bits > 0, "DramMacroSpec: sizes must be positive");
  require(row_bits % word_bits == 0,
          "DramMacroSpec: row_bits must be a multiple of word_bits");
  require(row_access_ns > 0.0 && page_access_ns > 0.0,
          "DramMacroSpec: timings must be positive");
}

std::size_t DramMacroSpec::words_per_row() const {
  validate();
  return row_bits / word_bits;
}

double DramMacroSpec::row_drain_ns() const {
  // One activation followed by paging out every word of the row buffer.
  return row_access_ns + static_cast<double>(words_per_row()) * page_access_ns;
}

double DramMacroSpec::sustained_bandwidth_gbps() const {
  return gbit_per_s(static_cast<double>(row_bits), row_drain_ns());
}

double DramMacroSpec::burst_bandwidth_gbps() const {
  return gbit_per_s(static_cast<double>(word_bits), page_access_ns);
}

double DramMacroSpec::chip_bandwidth_gbps(std::size_t nodes) const {
  require(nodes > 0, "DramMacroSpec: chip needs at least one node");
  return sustained_bandwidth_gbps() * static_cast<double>(nodes);
}

DramBank::DramBank(DramMacroSpec spec) : spec_(spec) { spec_.validate(); }

double DramBank::access_ns(std::uint64_t row) {
  if (any_open_ && open_row_ == row) {
    ++hits_;
    return spec_.page_access_ns;
  }
  ++misses_;
  any_open_ = true;
  open_row_ = row;
  return spec_.row_access_ns + spec_.page_access_ns;
}

double DramBank::closed_page_access_ns() const {
  return spec_.row_access_ns + spec_.page_access_ns;
}

bool DramBank::row_open(std::uint64_t row) const {
  return any_open_ && open_row_ == row;
}

double DramBank::hit_rate() const {
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0 : static_cast<double>(hits_) / static_cast<double>(total);
}

void DramBank::reset_stats() {
  hits_ = 0;
  misses_ = 0;
}

}  // namespace pimsim::mem
