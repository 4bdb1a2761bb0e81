// The shared encoders in src/common: JSON string escaping (every JSON
// writer and the chunk-manifest reader) and FNV-1a 64 (every fingerprint,
// the audit chain and the golden delivery hashes), including the
// four-lane form that checks chunk blocks.  The two FNV offset
// bases are pinned here because every recorded fingerprint depends on
// them (docs/DETERMINISM.md).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/fnv.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "core/scenario.hpp"
#include "des/simulation.hpp"
#include "golden_traffic.hpp"
#include "interconnect/network.hpp"

namespace pimsim {
namespace {

TEST(JsonEscape, EscapesQuoteBackslashNewlineAndTab) {
  EXPECT_EQ(json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(json_escape("plain ±"), "plain ±");
}

TEST(JsonEscape, UnescapeRoundTrips) {
  for (const std::string s :
       {"", "\"", "\\", "\n", "\t", "\\n", "x\"y\\z\n\tw", "trailing\\"}) {
    EXPECT_EQ(json_unescape(json_escape(s)), s) << json_escape(s);
  }
}

TEST(Fnv1a, StandardBasisMatchesReferenceVectors) {
  EXPECT_EQ(kFnvOffset, 0xcbf29ce484222325ULL);
  EXPECT_EQ(fnv1a(kFnvOffset, ""), kFnvOffset);
  EXPECT_EQ(fnv1a(kFnvOffset, "a"), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(fnv1a(kFnvOffset, "foobar"), 0x85944171f73967e8ULL);
}

TEST(Fnv1a, DataFingerprintKeepsTheShortBasis) {
  EXPECT_EQ(kFnvOffsetShort, 1469598103934665603ULL);
  EXPECT_EQ(core::data_fingerprint(""), 1469598103934665603ULL);
  EXPECT_EQ(core::data_fingerprint("a"), 0x44bd8ad473cd9906ULL);
}

TEST(Fnv1a, FourLaneFormMatchesOneBlockAtATime) {
  // Seeded views into one random pool: empty and one-byte blocks, lanes
  // of unequal length, blocks past 64 KiB, and every count from 0 to 13,
  // so 1-3 blocks are left after the last group of four.
  Rng rng(20261020);
  std::string pool(160 * 1024, '\0');
  for (char& c : pool) c = static_cast<char>(rng.uniform_int(0, 255));
  const auto block = [&](std::size_t len) {
    return std::string_view(pool).substr(
        rng.uniform_int(0, pool.size() - len), len);
  };
  std::vector<std::vector<std::string_view>> cases = {
      {block(0), block(1), block(70 * 1024), block(3)},
      {block(1), block(0), block(0), block(1), block(65 * 1024 + 1)}};
  for (std::size_t count = 0; count <= 13; ++count) {
    std::vector<std::string_view> blocks;
    for (std::size_t i = 0; i < count; ++i) {
      switch (rng.uniform_int(0, 5)) {
        case 0: blocks.push_back(block(0)); break;
        case 1: blocks.push_back(block(1)); break;
        case 2: blocks.push_back(block(rng.uniform_int(64 * 1024, 96 * 1024))); break;
        default: blocks.push_back(block(rng.uniform_int(2, 3000)));
      }
    }
    cases.push_back(blocks);
  }
  for (const std::vector<std::string_view>& blocks : cases) {
    const std::vector<std::uint64_t> hashes = fnv1a_each(kFnvOffsetShort, blocks);
    ASSERT_EQ(hashes.size(), blocks.size());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      EXPECT_EQ(hashes[i], fnv1a(kFnvOffsetShort, blocks[i]))
          << "block " << i << " of " << blocks.size() << ", "
          << blocks[i].size() << " bytes";
    }
  }
}

TEST(Fnv1a, WordFormHashesLittleEndianBytes) {
  const std::uint64_t word = 0x0807060504030201ULL;
  EXPECT_EQ(fnv1a_word(kFnvOffset, word),
            fnv1a(kFnvOffset, std::string("\x01\x02\x03\x04\x05\x06\x07\x08")));
  EXPECT_EQ(fnv1a_word(kFnvOffset, 0), fnv1a(kFnvOffset, std::string(8, '\0')));
}

TEST(Fnv1a, WordFormReproducesARecordedGoldenHash) {
  // The flat-topology wormhole recording of test_interconnect_golden.
  des::Simulation sim;
  interconnect::PacketNetwork net(
      sim, interconnect::golden::golden_topology("flat"),
      interconnect::golden::golden_config());
  const interconnect::golden::GoldenSummary s =
      interconnect::golden::run_golden(sim, net, /*packets=*/24,
                                       /*gap_scale=*/1.0, /*seed=*/2026);
  EXPECT_EQ(s.delivery_hash, 0x541e442e4cd0be94ULL);
}

}  // namespace
}  // namespace pimsim
