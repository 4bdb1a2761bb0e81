// Tests for the table/CSV emitter, including a differential check of
// the std::to_chars number writer against the snprintf formats it
// replaces.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

namespace pimsim {
namespace {

TEST(Table, StoresRowsAndReadsNumbers) {
  Table t("demo", {"a", "b"});
  t.add_row({std::string("x"), 1.5});
  t.add_row({std::int64_t{7}, 2.0});
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_DOUBLE_EQ(t.number_at(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(t.number_at(1, 0), 7.0);
}

TEST(Table, RejectsMismatchedRow) {
  Table t("demo", {"a", "b"});
  EXPECT_THROW(t.add_row({1.0}), ConfigError);
}

TEST(Table, RejectsTextAsNumber) {
  Table t("demo", {"a"});
  t.add_row({std::string("hello")});
  EXPECT_THROW(
      {
        const double v = t.number_at(0, 0);
        ADD_FAILURE() << "number_at read a text cell as " << v;
      },
      ConfigError);
}

TEST(Table, RejectsOutOfRange) {
  Table t("demo", {"a"});
  EXPECT_THROW(
      {
        [[maybe_unused]] const auto& row = t.row(0);
        ADD_FAILURE() << "row(0) succeeded on an empty table";
      },
      ConfigError);
  EXPECT_THROW(Table("t", {}), ConfigError);
}

TEST(Table, PrintContainsHeaderAndValues) {
  Table t("my title", {"col1", "col2"});
  t.add_row({std::string("v"), 3.25});
  std::ostringstream os;
  t.print(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("my title"), std::string::npos);
  EXPECT_NE(text.find("col1"), std::string::npos);
  EXPECT_NE(text.find("3.25"), std::string::npos);
}

TEST(Table, CsvQuotesSpecialCharacters) {
  Table t("t", {"name"});
  t.add_row({std::string("a,b\"c")});
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_NE(os.str().find("\"a,b\"\"c\""), std::string::npos);
}

TEST(Table, CsvHasOneLinePerRow) {
  Table t("t", {"x"});
  t.add_row({1.0});
  t.add_row({2.0});
  std::ostringstream os;
  t.print_csv(os);
  std::string line;
  std::istringstream in(os.str());
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 4);  // comment + header + 2 rows
}

TEST(FormatNumber, Regimes) {
  EXPECT_EQ(format_number(0.0), "0");
  EXPECT_EQ(format_number(42.0), "42");
  EXPECT_EQ(format_number(3.5), "3.5000");
  EXPECT_EQ(format_number(1.25e9), "1.25e+09");
  EXPECT_EQ(format_number(1e-5), "1e-05");
}

// --- format_number against snprintf --------------------------------------

/// format_number written on snprintf: the branches and printf formats
/// the to_chars writer must reproduce byte for byte.
std::string printf_reference(double v) {
  char buf[64];
  const double a = std::fabs(v);
  const bool near_int =
      std::fabs(v - std::nearbyint(v)) <= 1e-9 * std::fmax(a, 1.0);
  if (v == 0.0) return "0";
  if (a >= 1e7 || a < 1e-3) {
    std::snprintf(buf, sizeof buf, "%.4g", v);
  } else if (near_int) {
    std::snprintf(buf, sizeof buf, "%.0f", std::nearbyint(v));
  } else {
    std::snprintf(buf, sizeof buf, "%.4f", v);
  }
  return buf;
}

double from_bits(std::uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

double signed_by(std::uint64_t bits, double v) { return (bits & 1) ? -v : v; }

double ten_to(int e) { return std::pow(10.0, e); }

constexpr std::size_t kSamples = std::size_t{1} << 18;

/// Compares format_number with the reference on kSamples values drawn
/// by `draw` from a seeded SplitMix64; reports the first few mismatches.
template <typename Draw>
void expect_matches_printf(std::uint64_t seed, Draw draw) {
  SplitMix64 rng(seed);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    const double v = draw(rng);
    const std::string want = printf_reference(v);
    const std::string got = format_number(v);
    if (got != want && ++mismatches <= 5) {
      ADD_FAILURE() << std::hexfloat << v << ": to_chars '" << got
                    << "', snprintf '" << want << "'";
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(FormatNumberDifferential, RandomBitPatterns) {
  expect_matches_printf(1, [](SplitMix64& rng) { return from_bits(rng.next()); });
}

TEST(FormatNumberDifferential, RandomBitPatternsInTheFixedRange) {
  // Exponents 2^-10 .. 2^23 straddle [1e-3, 1e7), where "%.4f" and
  // "%.0f" apply.
  expect_matches_printf(2, [](SplitMix64& rng) {
    const std::uint64_t bits = rng.next();
    const std::uint64_t exponent = 1013 + (bits >> 58) % 34;
    return from_bits((bits & 0x800fffffffffffffULL) | (exponent << 52));
  });
}

TEST(FormatNumberDifferential, ScaledDecimals) {
  // k / 10^d spans every branch; d == 0 gives the integers.
  expect_matches_printf(3, [](SplitMix64& rng) {
    const std::uint64_t bits = rng.next();
    const auto k = static_cast<double>((bits >> 8) % 10'000'000'000ULL);
    const int d = static_cast<int>((bits >> 1) % 16) - 3;
    return signed_by(bits, k / ten_to(d));
  });
}

TEST(FormatNumberDifferential, ValuesAtTheRoundingDigit) {
  // Three kinds of x.xxxx5: exact binary ties n + odd/32 for "%.4f",
  // nearest doubles to decimal m.5e-4 on either side of the tie, and
  // exact 5-significant-digit ties (12345e3 ...) for "%.4g".
  expect_matches_printf(4, [](SplitMix64& rng) {
    const std::uint64_t bits = rng.next();
    const std::uint64_t r = bits >> 8;
    switch ((bits >> 1) % 3) {
      case 0:
        return signed_by(bits, static_cast<double>(r % 1'000'000) +
                                   static_cast<double>(2 * ((r >> 40) & 15) + 1) / 32.0);
      case 1:
        return signed_by(
            bits, static_cast<double>(r % 100'000'000'000ULL * 10 + 5) / 1e5);
      default: {
        // 10005 .. 99995 scaled to exact integers 1.0005e7 .. 9.9995e14,
        // or to near-ties below 1e-3.
        const auto digits = static_cast<double>(r % 9000 * 10 + 10005);
        const int e = static_cast<int>((r >> 40) & 15);
        return signed_by(bits, e < 8 ? digits * ten_to(e + 3) : digits / ten_to(e));
      }
    }
  });
}

TEST(FormatNumberDifferential, SpecialsAndBranchEdges) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double tiny = std::numeric_limits<double>::denorm_min();
  EXPECT_EQ(format_number(-0.0), "0");
  EXPECT_EQ(format_number(inf), "inf");
  EXPECT_EQ(format_number(-inf), "-inf");
  EXPECT_EQ(format_number(nan), "nan");
  EXPECT_EQ(format_number(-nan), "-nan");
  EXPECT_EQ(format_number(tiny), "4.941e-324");
  EXPECT_EQ(format_number(1e-3), "0.0010");
  EXPECT_EQ(format_number(1e7), "1e+07");

  std::vector<double> values = {0.0, -0.0, inf, -inf, nan, -nan, tiny, -tiny,
                                std::numeric_limits<double>::min(),
                                std::numeric_limits<double>::max(),
                                std::numeric_limits<double>::lowest()};
  for (const double edge : {1e-3, 1e7}) {
    for (const double v : {edge, std::nextafter(edge, 0.0),
                           std::nextafter(edge, inf)}) {
      values.push_back(v);
      values.push_back(-v);
    }
  }
  // near_int snaps within 1e-9 * max(|v|, 1) of an integer: probe both
  // sides of that threshold.
  for (const double n : {1.0, 2.0, 7.0, 1000.0, 123456.0, 9999999.0}) {
    for (const double off : {1e-9 * n, -1e-9 * n}) {
      const double at = n + off;
      for (const double v : {at, std::nextafter(at, inf), std::nextafter(at, -inf)}) {
        values.push_back(v);
        values.push_back(-v);
      }
    }
  }
  for (const double v : values) {
    EXPECT_EQ(format_number(v), printf_reference(v)) << std::hexfloat << v;
  }
}

// --- byte-exact golden output ----------------------------------------------

Table mixed_table() {
  Table t("mixed", {"name", "count", "value"});
  t.add_row({std::string("plain"), std::int64_t{42}, 3.5});
  t.add_row({std::string("a,b"), std::int64_t{-7}, -0.0});
  t.add_row({std::string("say \"hi\""), std::numeric_limits<std::int64_t>::min(),
             std::numeric_limits<double>::quiet_NaN()});
  t.add_row({std::string("two\nlines"), std::int64_t{0},
             std::numeric_limits<double>::infinity()});
  t.add_row({std::string("neg"), std::numeric_limits<std::int64_t>::max(),
             -std::numeric_limits<double>::infinity()});
  t.add_row({std::string("tiny"), std::int64_t{1}, 1.25e-5});
  return t;
}

TEST(Table, CsvGoldenMixedCells) {
  std::ostringstream os;
  mixed_table().print_csv(os);
  EXPECT_EQ(os.str(),
            "# mixed\n"
            "name,count,value\n"
            "plain,42,3.5000\n"
            "\"a,b\",-7,0\n"
            "\"say \"\"hi\"\"\",-9223372036854775808,nan\n"
            "\"two\nlines\",0,inf\n"
            "neg,9223372036854775807,-inf\n"
            "tiny,1,1.25e-05\n");
}

TEST(Table, TextGoldenMixedCells) {
  std::ostringstream os;
  mixed_table().print(os);
  EXPECT_EQ(os.str(),
            "# mixed\n"
            "name       count                 value   \n"
            "-----------------------------------------\n"
            "plain      42                    3.5000  \n"
            "a,b        -7                    0       \n"
            "say \"hi\"   -9223372036854775808  nan     \n"
            "two\nlines  0                     inf     \n"
            "neg        9223372036854775807   -inf    \n"
            "tiny       1                     1.25e-05\n");
}

}  // namespace
}  // namespace pimsim
