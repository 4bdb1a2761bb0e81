// Tests for the key=value configuration parser.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"

namespace pimsim {
namespace {

TEST(Config, ParsesArgs) {
  const char* argv[] = {"prog", "alpha=1.5", "name=hello", "count=42"};
  Config cfg = Config::from_args(4, argv);
  EXPECT_DOUBLE_EQ(cfg.get_double("alpha", 0.0), 1.5);
  EXPECT_EQ(cfg.get_string("name", ""), "hello");
  EXPECT_EQ(cfg.get_int("count", 0), 42);
}

TEST(Config, FallbacksApply) {
  Config cfg;
  EXPECT_DOUBLE_EQ(cfg.get_double("missing", 2.5), 2.5);
  EXPECT_EQ(cfg.get_int("missing", -3), -3);
  EXPECT_TRUE(cfg.get_bool("missing", true));
  EXPECT_EQ(cfg.get_string("missing", "dft"), "dft");
}

TEST(Config, BoolSpellings) {
  Config cfg = Config::from_string("a=1 b=true c=yes d=on e=0 f=false g=off");
  for (const char* k : {"a", "b", "c", "d"}) EXPECT_TRUE(cfg.get_bool(k, false));
  for (const char* k : {"e", "f", "g"}) EXPECT_FALSE(cfg.get_bool(k, true));
}

TEST(Config, ListParsing) {
  Config cfg = Config::from_string("xs=1,2.5,4");
  const auto xs = cfg.get_list("xs", {});
  ASSERT_EQ(xs.size(), 3u);
  EXPECT_DOUBLE_EQ(xs[1], 2.5);
}

TEST(Config, RejectsMalformedToken) {
  const char* argv[] = {"prog", "noequals"};
  EXPECT_THROW(Config::from_args(2, argv), ConfigError);
  const char* argv2[] = {"prog", "=5"};
  EXPECT_THROW(Config::from_args(2, argv2), ConfigError);
}

TEST(Config, IgnoresDashDashFlags) {
  const char* argv[] = {"prog", "--benchmark_filter=all", "k=1"};
  Config cfg = Config::from_args(3, argv);
  EXPECT_EQ(cfg.get_int("k", 0), 1);
}

TEST(Config, RejectsBadNumbers) {
  Config cfg = Config::from_string("x=abc y=1.5z");
  EXPECT_THROW(
      {
        const double v = cfg.get_double("x", 0.0);
        ADD_FAILURE() << "get_double parsed \"abc\" as " << v;
      },
      ConfigError);
  EXPECT_THROW(
      {
        const double v = cfg.get_double("y", 0.0);
        ADD_FAILURE() << "get_double parsed \"1.5z\" as " << v;
      },
      ConfigError);
  EXPECT_THROW(
      {
        const std::int64_t v = cfg.get_int("x", 0);
        ADD_FAILURE() << "get_int parsed \"abc\" as " << v;
      },
      ConfigError);
  EXPECT_THROW(
      {
        const bool v = cfg.get_bool("x", false);
        ADD_FAILURE() << "get_bool parsed \"abc\" as " << v;
      },
      ConfigError);
}

TEST(Config, RejectsIntegersPastInt64InsteadOfClamping) {
  // strtoll clamps these to INT64_MAX/MIN; reading them as that would be
  // a silent misread.
  Config cfg = Config::from_string(
      "a=99999999999999999999 b=-99999999999999999999 "
      "c=9223372036854775807 d=-9223372036854775808");
  EXPECT_THROW((void)cfg.get_int("a", 0), ConfigError);
  EXPECT_THROW((void)cfg.get_int("b", 0), ConfigError);
  EXPECT_EQ(cfg.get_int("c", 0), INT64_MAX);
  EXPECT_EQ(cfg.get_int("d", 0), INT64_MIN);
}

TEST(Config, GettersWithoutFallbackRequireTheKey) {
  Config cfg = Config::from_string("i=3 d=0.5 b=on s=x l=1,2");
  EXPECT_EQ(cfg.get_int("i"), 3);
  EXPECT_DOUBLE_EQ(cfg.get_double("d"), 0.5);
  EXPECT_TRUE(cfg.get_bool("b"));
  EXPECT_EQ(cfg.get_string("s"), "x");
  EXPECT_EQ(cfg.get_list("l"), (std::vector<double>{1.0, 2.0}));
  EXPECT_THROW((void)cfg.get_int("missing"), ConfigError);
  EXPECT_THROW((void)cfg.get_double("missing"), ConfigError);
  EXPECT_THROW((void)cfg.get_bool("missing"), ConfigError);
  EXPECT_THROW((void)cfg.get_string("missing"), ConfigError);
  EXPECT_THROW((void)cfg.get_list("missing"), ConfigError);
}

TEST(Config, UnusedKeyDetection) {
  Config cfg = Config::from_string("used=1 typo=2");
  (void)cfg.get_int("used", 0);
  const auto unused = cfg.unused_keys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
  EXPECT_THROW(cfg.reject_unused(), ConfigError);
  (void)cfg.get_int("typo", 0);
  EXPECT_NO_THROW(cfg.reject_unused());
}

}  // namespace
}  // namespace pimsim
