// Scenario registry tests: lookup and duplicate rejection, typed and
// range-checked parameter validation (InvalidArgument naming the key and
// range and listing the valid keys), declared defaults as the one source
// of every omitted value, and the registry-vs-generator equivalence
// contract — `pimsim run fig5` produces the exact table make_fig5
// produces, at any sweep_threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "arch/params.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "core/experiment.hpp"
#include "core/figures.hpp"
#include "core/scenario.hpp"

namespace pimsim::core {
namespace {

std::string csv_of(const Table& table) {
  std::ostringstream os;
  table.print_csv(os);
  return os.str();
}

TEST(ScenarioRegistry, GlobalHoldsEveryFigureAndAblation) {
  const ScenarioRegistry& reg = ScenarioRegistry::global();
  for (const char* name :
       {"table1", "bandwidth", "fig5", "fig6", "fig7", "accuracy", "fig11",
        "fig12", "multithreading", "sensitivity", "ablation_bank_conflicts",
        "ablation_topology", "ablation_switch_cost", "ablation_overlap",
        "ablation_bandwidth", "hotspot", "memory_contention"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
  }
  EXPECT_EQ(reg.all().size(), 17u);
  // Every scenario is fully self-describing: summary, paper anchor, and a
  // doc string on every parameter.
  for (const Scenario* s : reg.all()) {
    EXPECT_FALSE(s->summary.empty()) << s->name;
    EXPECT_FALSE(s->paper.empty()) << s->name;
    for (const ParamSpec& p : s->params) {
      EXPECT_FALSE(p.doc.empty()) << s->name << "." << p.key;
      EXPECT_FALSE(p.default_value.empty()) << s->name << "." << p.key;
    }
  }
}

TEST(ScenarioRegistry, LookupMissThrowsListingNames) {
  try {
    (void)ScenarioRegistry::global().get("nope");
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("nope"), std::string::npos);
    EXPECT_NE(what.find("fig5"), std::string::npos);
    EXPECT_NE(what.find("ablation_topology"), std::string::npos);
  }
}

TEST(ScenarioRegistry, RejectsDuplicateAndMalformedRegistrations) {
  ScenarioRegistry reg;
  Scenario s;
  s.name = "dup";
  s.make = [](const Config&) { return Table("t", {"c"}); };
  reg.add(s);
  EXPECT_TRUE(reg.contains("dup"));
  EXPECT_THROW(reg.add(s), InvalidArgument);

  Scenario unnamed;
  unnamed.make = [](const Config&) { return Table("t", {"c"}); };
  EXPECT_THROW(reg.add(unnamed), InvalidArgument);

  Scenario no_generator;
  no_generator.name = "hollow";
  EXPECT_THROW(reg.add(no_generator), InvalidArgument);
  EXPECT_FALSE(reg.contains("hollow"));
}

TEST(RunScenario, UnknownParameterListsValidKeys) {
  try {
    (void)run_scenario("fig5", Config::from_string("maxnodez=8"));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("maxnodez"), std::string::npos);
    EXPECT_NE(what.find("valid keys"), std::string::npos);
    EXPECT_NE(what.find("maxnodes"), std::string::npos);
    EXPECT_NE(what.find("threads"), std::string::npos);
  }
}

TEST(RunScenario, TypedParseErrorIsInvalidArgumentListingValidKeys) {
  // int, double, bool, and list parameters all fail the same way.
  for (const char* bad :
       {"ops=many", "horizon=tall", "contention=maybe", "latencies=a,b"}) {
    try {
      (void)run_scenario("fig11", Config::from_string(bad));
      FAIL() << "expected InvalidArgument for " << bad;
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("valid keys"), std::string::npos) << bad;
      EXPECT_NE(what.find("nodes"), std::string::npos) << bad;
    } catch (const std::exception& e) {
      FAIL() << "wrong exception type for " << bad << ": " << e.what();
    }
  }
}

TEST(RunScenario, ExtraAllowedKeysAreTolerated) {
  const Config cfg = Config::from_string("format=csv");
  EXPECT_THROW((void)run_scenario("table1", cfg), InvalidArgument);
  const Table t = run_scenario("table1", cfg, {"format"});
  EXPECT_EQ(t.rows(), 13u);
}

TEST(RunScenario, HostFiguresMatchDirectGeneratorBitwiseAtAnySweepThreads) {
  // The same reduced grid, once through the registry (as pimsim run does)
  // and once through make_fig5 / make_fig6 directly.
  struct Case {
    const char* name;
    HostFigureConfig config;
    Table (*make)(const HostFigureConfig&);
  };
  for (const Case& c : {Case{"fig5", HostFigureConfig::defaults_fig5(), make_fig5},
                        Case{"fig6", HostFigureConfig::defaults_fig6(), make_fig6}}) {
    HostFigureConfig direct = c.config;
    direct.node_counts = pow2_range(8);
    direct.base.workload.total_ops = 200'000;
    direct.base.batch_ops = 10'000;
    direct.base.seed = 1;
    direct.sweep_threads = 1;
    const std::string expected = csv_of(c.make(direct));

    for (const char* threads : {"1", "2", "5"}) {
      const Config cfg = Config::from_string(
          std::string("maxnodes=8 ops=200000 batch=10000 threads=") + threads);
      EXPECT_EQ(csv_of(run_scenario(c.name, cfg)), expected)
          << c.name << " sweep_threads=" << threads;
    }
  }
}

TEST(RunScenario, Fig7ListAndScalarDefaultsMatchBenchDefaults) {
  // fig7 has no RNG and runs instantly: spot-check the registry path end
  // to end against make_fig7 with the registration's exact axis logic.
  const Table via_registry =
      run_scenario("fig7", Config::from_string("maxnodes=16"));
  arch::SystemParams params = arch::SystemParams::table1();
  std::vector<double> nodes;
  for (double n = 1.0; n <= 16.0; n *= 1.25) nodes.push_back(n);
  nodes.push_back(params.nb());
  std::sort(nodes.begin(), nodes.end());
  const Table direct = make_fig7(params, nodes, fraction_range(10));
  EXPECT_EQ(csv_of(via_registry), csv_of(direct));
}

TEST(RunScenario, ExplicitDefaultsMatchOmittedKeysForEveryScenario) {
  // A parameter's declared default is the value the generator runs with:
  // spelling every omitted key out at its default must not change a byte.
  for (const Scenario* s : ScenarioRegistry::global().all()) {
    const Config omitted = Config::from_string(s->verify_params);
    Config spelled = omitted;
    for (const ParamSpec& p : s->params) {
      if (!omitted.has(p.key)) spelled.set(p.key, p.default_value);
    }
    EXPECT_EQ(table_fingerprint(run_scenario(*s, spelled)),
              table_fingerprint(run_scenario(*s, omitted)))
        << s->name << " with every default spelled out";
  }
}

/// A copy of the registered scenario whose generator only records that
/// it was reached, so a value that would hang or crash generation fails
/// the test instead of the run.
Scenario stub_of(const std::string& name, bool& reached) {
  Scenario stub = ScenarioRegistry::global().get(name);
  stub.make = [&reached](const Config&) {
    reached = true;
    return Table("stub", {"none"});
  };
  return stub;
}

TEST(RunScenario, OutOfRangeValuesThrowNamingKeyAndRangeBeforeGeneration) {
  struct Case {
    const char* scenario;
    const char* params;
    const char* key;
    const char* range;
  };
  for (const Case& c : {
           Case{"fig5", "ops=-1", "ops", "> 0"},
           Case{"multithreading", "ops=-3", "ops", "> 0"},
           Case{"fig5", "maxnodes=-4", "maxnodes", "1..2^20"},
           Case{"fig5", "threads=-1", "threads", ">= 0"},
           Case{"fig12", "sizes=-1", "sizes", ">= 1"},
           Case{"ablation_topology", "nodes=-1", "nodes", ">= 1"},
           Case{"hotspot", "nodes=1", "nodes", ">= 2"},
           Case{"fig12", "horizon=nan", "horizon", "> 0"},
           Case{"fig11", "latencies=10,nan", "latencies", "> 0"},
           Case{"fig12", "premote=1.5", "premote", "[0, 1]"},
           Case{"fig11", "network=hex", "network", "flat|ring|mesh2d|torus"},
           Case{"hotspot", "networks=flat,hex", "networks",
                "comma list of flat|ring|mesh2d|torus"},
           Case{"fig5", "reps=0", "reps", ">= 1"},
       }) {
    bool reached = false;
    const Scenario stub = stub_of(c.scenario, reached);
    try {
      (void)run_scenario(stub, Config::from_string(c.params));
      ADD_FAILURE() << c.scenario << " " << c.params << " was accepted";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("'") + c.key + "'"), std::string::npos)
          << c.params << ": " << what;
      EXPECT_NE(what.find(std::string("range ") + c.range), std::string::npos)
          << c.params << ": " << what;
    }
    EXPECT_FALSE(reached) << c.scenario << " " << c.params;
  }
}

TEST(RunScenario, EveryInt64SeedAndOneRepAreAccepted) {
  // run_replication renders SplitMix64 seeds past INT64_MAX as negative,
  // so a seed's range is all of int64.
  for (const char* params :
       {"seed=-1", "seed=-9223372036854775808", "seed=9223372036854775807",
        "reps=1", "reps=3 seed=7"}) {
    bool reached = false;
    const Scenario stub = stub_of("fig12", reached);
    EXPECT_NO_THROW((void)run_scenario(stub, Config::from_string(params)))
        << params;
    EXPECT_TRUE(reached) << params;
  }
}

TEST(RunScenario, CostHintsReadDeclaredDefaultsFromAnUnresolvedConfig) {
  // Shard planners pass each point's config as written; the hint must see
  // the same defaults the generator runs with.
  const Scenario& fig11 = ScenarioRegistry::global().get("fig11");
  EXPECT_DOUBLE_EQ(fig11.cost_hint(Config()),
                   30000.0 * 8 * 1 * 7 * 5 * (1 + 2 + 4 + 8 + 16 + 32));
  const Scenario& fig5 = ScenarioRegistry::global().get("fig5");
  EXPECT_DOUBLE_EQ(fig5.cost_hint(Config::from_string("ops=2000")),
                   1.0 * 9 * 2000 / 1e6);
}

TEST(ScenarioRegistry, RejectsDefaultsOutsideTheirKindOrRange) {
  const auto with_param = [](ParamSpec p) {
    Scenario s;
    s.name = "bad_default";
    s.make = [](const Config&) { return Table("t", {"c"}); };
    s.params = {std::move(p)};
    return s;
  };
  for (const ParamSpec& p :
       {ParamSpec{"ops", ParamSpec::Kind::kInt, "0", above(0), "d"},
        ParamSpec{"ops", ParamSpec::Kind::kInt, "ten", at_least(1), "d"},
        ParamSpec{"pct", ParamSpec::Kind::kDouble, "2", between(0, 1), "d"},
        ParamSpec{"on", ParamSpec::Kind::kBool, "maybe", {}, "d"},
        ParamSpec{"net", ParamSpec::Kind::kString, "hex",
                  one_of({"flat", "ring"}), "d"},
        ParamSpec{"xs", ParamSpec::Kind::kList, "1,-1", at_least(0), "d"}}) {
    ScenarioRegistry reg;
    EXPECT_THROW(reg.add(with_param(p)), InvalidArgument) << p.key;
    EXPECT_FALSE(reg.contains("bad_default")) << p.key;
  }
}

TEST(ParamSpec, RangeTextRendersEveryForm) {
  const auto text = [](ParamSpec::Kind kind, ParamRange range) {
    return ParamSpec{"k", kind, "1", std::move(range), "d"}.range_text();
  };
  EXPECT_EQ(text(ParamSpec::Kind::kInt, above(0)), "> 0");
  EXPECT_EQ(text(ParamSpec::Kind::kInt, at_least(1)), ">= 1");
  EXPECT_EQ(text(ParamSpec::Kind::kInt, between(1, 1 << 20)), "1..2^20");
  EXPECT_EQ(text(ParamSpec::Kind::kDouble, between(0, 1)), "[0, 1]");
  EXPECT_EQ(text(ParamSpec::Kind::kInt, {}), "any");
  EXPECT_EQ(text(ParamSpec::Kind::kBool, {}), "0|1");
  EXPECT_EQ(text(ParamSpec::Kind::kString, one_of({"a", "b"})), "a|b");
  EXPECT_EQ(text(ParamSpec::Kind::kString, list_of({"a", "b"})),
            "comma list of a|b");
}

TEST(TableFingerprint, DistinguishesTablesAndIsStable) {
  Table a("t", {"x"});
  a.add_row({1.0});
  Table b("t", {"x"});
  b.add_row({2.0});
  EXPECT_NE(table_fingerprint(a), table_fingerprint(b));
  EXPECT_EQ(table_fingerprint(a), table_fingerprint(a));
  EXPECT_NE(table_fingerprint(a), 0u);
}

}  // namespace
}  // namespace pimsim::core
