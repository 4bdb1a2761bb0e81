#include "memory/cache.hpp"

#include "common/error.hpp"

namespace pimsim::mem {

void CacheGeometry::validate() const {
  require(size_bytes > 0 && line_bytes > 0 && ways > 0,
          "CacheGeometry: all fields must be positive");
  require(size_bytes % (line_bytes * ways) == 0,
          "CacheGeometry: size must be a multiple of line_bytes*ways");
}

std::size_t CacheGeometry::sets() const {
  validate();
  return size_bytes / (line_bytes * ways);
}

SetAssocCache::SetAssocCache(CacheGeometry geometry)
    : geometry_(geometry), lines_(geometry.sets() * geometry.ways) {}

CacheOutcome SetAssocCache::access(std::uint64_t addr) {
  const std::uint64_t block = addr / geometry_.line_bytes;
  const std::size_t set = static_cast<std::size_t>(block % geometry_.sets());
  const std::uint64_t tag = block / geometry_.sets();
  Line* base = &lines_[set * geometry_.ways];
  ++stamp_;

  Line* victim = base;
  for (std::size_t w = 0; w < geometry_.ways; ++w) {
    Line& line = base[w];
    if (line.valid && line.tag == tag) {
      line.lru = stamp_;
      ++hits_;
      return CacheOutcome::kHit;
    }
    if (!line.valid) {
      victim = &line;  // prefer an invalid way
    } else if (victim->valid && line.lru < victim->lru) {
      victim = &line;
    }
  }
  victim->valid = true;
  victim->tag = tag;
  victim->lru = stamp_;
  ++misses_;
  return CacheOutcome::kMiss;
}

double SetAssocCache::miss_rate() const {
  const std::uint64_t total = hits_ + misses_;
  return total == 0 ? 0.0
                    : static_cast<double>(misses_) / static_cast<double>(total);
}

void SetAssocCache::reset_stats() {
  hits_ = 0;
  misses_ = 0;
}

void SetAssocCache::flush() {
  for (auto& line : lines_) line.valid = false;
  reset_stats();
}

}  // namespace pimsim::mem
