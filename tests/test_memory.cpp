// Tests for the DRAM macro, bank and structural cache models.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "memory/cache.hpp"
#include "memory/dram.hpp"

namespace pimsim::mem {
namespace {

TEST(DramMacroSpec, PaperGeometry) {
  const DramMacroSpec spec;
  EXPECT_EQ(spec.row_bits, 2048u);
  EXPECT_EQ(spec.word_bits, 256u);
  EXPECT_EQ(spec.words_per_row(), 8u);
}

TEST(DramMacroSpec, SustainedBandwidthExceedsPaperClaim) {
  // "a single on-chip DRAM macro could sustain a bandwidth of over
  //  50 Gbit/s" with 20 ns row access and 2 ns page access.
  const DramMacroSpec spec;
  EXPECT_GT(spec.sustained_bandwidth_gbps(), 50.0);
  // Row drain: 20 + 8*2 = 36 ns for 2048 bits -> ~56.9 Gbit/s.
  EXPECT_NEAR(spec.sustained_bandwidth_gbps(), 2048.0 / 36.0, 0.01);
}

TEST(DramMacroSpec, BurstBandwidth) {
  const DramMacroSpec spec;
  // 256 bits / 2 ns = 128 Gbit/s.
  EXPECT_NEAR(spec.burst_bandwidth_gbps(), 128.0, 1e-9);
}

TEST(DramMacroSpec, ChipBandwidthExceedsOneTbit) {
  // "an on-chip peak memory bandwidth of greater than 1 Tbit/s is
  //  possible per chip" — holds from ~18 nodes up.
  const DramMacroSpec spec;
  EXPECT_GT(spec.chip_bandwidth_gbps(32), 1000.0);
  EXPECT_LT(spec.chip_bandwidth_gbps(8), 1000.0);
}

TEST(DramMacroSpec, ValidationCatchesBadGeometry) {
  DramMacroSpec spec;
  spec.word_bits = 300;  // not a divisor of 2048
  EXPECT_THROW(spec.validate(), ConfigError);
  spec = DramMacroSpec{};
  spec.row_access_ns = 0.0;
  EXPECT_THROW(spec.validate(), ConfigError);
}

TEST(DramBank, RowBufferHitsAreFast) {
  DramBank bank;
  const double miss = bank.access_ns(5);   // opens row 5
  const double hit = bank.access_ns(5);    // row buffer hit
  EXPECT_DOUBLE_EQ(miss, 22.0);  // 20 + 2
  EXPECT_DOUBLE_EQ(hit, 2.0);
  EXPECT_EQ(bank.hits(), 1u);
  EXPECT_EQ(bank.misses(), 1u);
  EXPECT_DOUBLE_EQ(bank.hit_rate(), 0.5);
}

TEST(DramBank, ConflictingRowsThrash) {
  DramBank bank;
  (void)bank.access_ns(1);
  (void)bank.access_ns(2);
  (void)bank.access_ns(1);
  EXPECT_EQ(bank.hits(), 0u);
  EXPECT_EQ(bank.misses(), 3u);
  EXPECT_TRUE(bank.row_open(1));
  EXPECT_FALSE(bank.row_open(2));
}

TEST(DramBank, StatsReset) {
  DramBank bank;
  (void)bank.access_ns(1);
  bank.reset_stats();
  EXPECT_EQ(bank.hits() + bank.misses(), 0u);
  EXPECT_DOUBLE_EQ(bank.hit_rate(), 0.0);
}

TEST(SetAssocCache, GeometryDerivation) {
  CacheGeometry g;
  g.size_bytes = 1 << 16;
  g.line_bytes = 64;
  g.ways = 4;
  EXPECT_EQ(g.sets(), 256u);
  g.size_bytes = 100;  // not divisible
  EXPECT_THROW(g.validate(), ConfigError);
}

TEST(SetAssocCache, RepeatedAccessHits) {
  SetAssocCache cache(CacheGeometry{1 << 12, 64, 2});
  EXPECT_EQ(cache.access(0x100), CacheOutcome::kMiss);
  EXPECT_EQ(cache.access(0x100), CacheOutcome::kHit);
  EXPECT_EQ(cache.access(0x104), CacheOutcome::kHit);  // same line
  EXPECT_EQ(cache.access(0x140), CacheOutcome::kMiss); // next line
}

TEST(SetAssocCache, LruEvictionOrder) {
  // 2-way cache: two blocks mapping to one set survive; a third evicts
  // the least recently used.
  CacheGeometry g{2 * 64 * 4, 64, 2};  // 4 sets, 2 ways
  SetAssocCache cache(g);
  const std::uint64_t setstride = 64 * 4;
  (void)cache.access(0 * setstride);  // A -> miss
  (void)cache.access(1 * setstride);  // B -> miss (same set, other way)
  (void)cache.access(0 * setstride);  // A -> hit, B becomes LRU
  cache.reset_stats();
  (void)cache.access(2 * setstride);  // C -> evicts B
  EXPECT_EQ(cache.access(0 * setstride), CacheOutcome::kHit);   // A survived
  EXPECT_EQ(cache.access(1 * setstride), CacheOutcome::kMiss);  // B evicted
}

TEST(SetAssocCache, FlushColdsTheCache) {
  SetAssocCache cache(CacheGeometry{1 << 12, 64, 2});
  (void)cache.access(0);
  (void)cache.access(0);
  cache.flush();
  EXPECT_EQ(cache.access(0), CacheOutcome::kMiss);
}

TEST(SetAssocCache, StreamingFitsInCacheHasHighHitRate) {
  // A footprint smaller than the cache, swept repeatedly: ~all hits after
  // the first pass (the "high temporal locality" regime of the paper).
  SetAssocCache cache(CacheGeometry{1 << 16, 64, 4});
  for (int pass = 0; pass < 10; ++pass) {
    for (std::uint64_t a = 0; a < (1 << 14); a += 64) (void)cache.access(a);
  }
  EXPECT_LT(cache.miss_rate(), 0.11);
}

}  // namespace
}  // namespace pimsim::mem
