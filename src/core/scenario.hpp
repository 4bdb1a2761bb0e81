// Scenario registry: the single seam every experiment plugs into.
//
// Each reproduced figure, table, ablation, and traffic study registers
// itself as a named Scenario with typed, self-describing parameters and a
// generator returning the common::Table it plots.  A parameter's ParamSpec
// is the one place its default and range are stated: run_scenario checks
// every provided value against the declared range (InvalidArgument naming
// the key and the range) and fills every omitted key from its declared
// default, so generators and cost hints read each knob without a fallback
// of their own.  The `pimsim` CLI (src/core/cli.hpp) drives the registry —
// list / run / sweep / verify — so a new workload or topology study is
// ~30 lines of registration instead of a new build target.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/table.hpp"

namespace pimsim::core {

/// The values a parameter admits.  Numeric bounds apply to int and
/// double parameters and to every element of a list; a choice set applies
/// to a string (or, with `per_item`, to each item of a comma list).  The
/// default-constructed range admits every value of the kind; doubles and
/// list elements must always be finite.
struct ParamRange {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;                ///< lo itself is excluded
  std::vector<std::string> choices{};  ///< admitted strings; empty = any
  bool per_item = false;               ///< choices apply to each csv item
};

[[nodiscard]] ParamRange above(double lo);               ///< (lo, inf)
[[nodiscard]] ParamRange at_least(double lo);            ///< [lo, inf)
[[nodiscard]] ParamRange between(double lo, double hi);  ///< [lo, hi]
[[nodiscard]] ParamRange one_of(std::vector<std::string> choices);
[[nodiscard]] ParamRange list_of(std::vector<std::string> choices);

/// One typed, documented scenario parameter (a key=value knob).
struct ParamSpec {
  enum class Kind { kInt, kDouble, kBool, kString, kList, kIntList };

  std::string key;
  Kind kind = Kind::kDouble;
  std::string default_value;  ///< the default, as command-line text
  ParamRange range;           ///< checked by run_scenario
  std::string doc;            ///< one-line description

  /// The range as `pimsim help` and `list json` print it, e.g. "> 0",
  /// "[0, 1]", "1..2^20", "flat|ring|mesh2d|torus", "any".
  [[nodiscard]] std::string range_text() const;
};

[[nodiscard]] const char* to_string(ParamSpec::Kind kind);

/// A registered experiment: a named generator from key=value parameters
/// to the Table the paper figure/claim plots.
struct Scenario {
  std::string name;     ///< CLI name, e.g. "fig5"
  std::string summary;  ///< one-line description of what it reproduces
  std::string paper;    ///< paper anchor, e.g. "Section 3.1, Figure 5"
  std::vector<ParamSpec> params;
  /// Called by run_scenario with every declared key set.
  std::function<Table(const Config&)> make;

  /// Reduced-grid parameters for `pimsim verify` (fast + deterministic).
  std::string verify_params;
  /// FNV-1a fingerprint of the verify run's CSV output; 0 = not pinned.
  /// Fingerprints are compiler/libm sensitive, so `pimsim verify` only
  /// enforces them with strict=1 (the determinism recheck always runs).
  std::uint64_t verify_fingerprint = 0;

  /// Relative cost estimate of one point at `cfg` — any monotone proxy
  /// for wall time (events, horizon x array size).  Feeds the shard
  /// planner's heaviest-first balance; unset (or throwing) scenarios
  /// weight every point equally.  Never affects results, only which
  /// shard computes a point.  ScenarioRegistry::add wraps it so omitted
  /// keys read their declared defaults, as in the generator.
  std::function<double(const Config&)> cost_hint{};

  /// The declared parameter named `key`, or nullptr.
  [[nodiscard]] const ParamSpec* param(const std::string& key) const;
};

/// Name -> Scenario map with loud duplicate/lookup failures.
class ScenarioRegistry {
 public:
  /// Registers a scenario; throws InvalidArgument on an empty or
  /// duplicate name, a scenario without a generator, or a parameter
  /// default that does not parse as its kind or lies outside its range.
  void add(Scenario scenario);

  [[nodiscard]] bool contains(const std::string& name) const;
  /// Throws InvalidArgument enumerating the registered names on a miss.
  [[nodiscard]] const Scenario& get(const std::string& name) const;
  /// All scenarios, name-sorted.
  [[nodiscard]] std::vector<const Scenario*> all() const;
  /// All registered names, sorted.
  [[nodiscard]] std::vector<std::string> names() const;

  /// The process-wide registry, preloaded with every built-in scenario.
  [[nodiscard]] static ScenarioRegistry& global();

 private:
  std::map<std::string, Scenario> scenarios_;
};

/// Registers the built-in figure/table/ablation/traffic scenarios into
/// `registry` (global() calls this once on first use).
void register_builtin_scenarios(ScenarioRegistry& registry);

/// Validates `cfg` against the scenario's declared parameters and runs
/// it with every omitted key set to its declared default.  Unknown keys,
/// values that fail to parse as the declared type and values outside the
/// declared range all throw InvalidArgument, before generation starts,
/// naming the key and range and listing the valid keys.
/// `extra_allowed` names driver keys (csv=, format=, out=) the caller
/// consumes itself and the scenario must tolerate.
[[nodiscard]] Table run_scenario(const Scenario& scenario, const Config& cfg,
                                 const std::vector<std::string>& extra_allowed = {});
/// Same, looking `name` up in the global registry.
[[nodiscard]] Table run_scenario(const std::string& name, const Config& cfg,
                                 const std::vector<std::string>& extra_allowed = {});

// --- replication axis (docs/REPLICATION.md) -------------------------------
//
// Scenarios that declare a `reps` parameter are driven through the
// table-level replication engine by run_scenario: R seed-streamed
// replications (one SplitMix64-derived seed per rep, shared by every
// process that computes any rep) folded into mean ± half-width columns.
// reps=1 bypasses the engine entirely, so single-run output is bitwise
// identical to a scenario without the knob.

/// The replication axis of one scenario run: whether the scenario
/// declares a `reps` knob, how many replications `cfg` requests, and the
/// base seed the per-rep seed stream derives from.
struct ReplicationSpec {
  bool declared = false;    ///< scenario has a `reps` parameter
  std::size_t reps = 1;     ///< requested replications (validated >= 1)
  std::uint64_t base_seed = 0;  ///< seed the per-rep stream splits from
};

/// Reads the replication request out of `cfg` using the scenario's
/// declared defaults; throws InvalidArgument, as run_scenario does, when
/// `reps` or `seed` does not parse or lies outside its range.
[[nodiscard]] ReplicationSpec replication_spec(const Scenario& scenario,
                                               const Config& cfg);

/// Runs replication `rep` (0-based) of the scenario alone: the same
/// single-rep table the unsharded fold consumes, reproducible from
/// (cfg, rep) regardless of which process computes it.  The sharded
/// sweep fabric calls this per (point, rep) unit and `pimsim merge`
/// refolds the serialized tables, byte-identical to the in-process fold.
[[nodiscard]] Table run_replication(
    const Scenario& scenario, const Config& cfg, std::size_t rep,
    const std::vector<std::string>& extra_allowed = {});

/// FNV-1a 64 over arbitrary bytes — the one hash behind every pinned
/// verify fingerprint.
[[nodiscard]] std::uint64_t data_fingerprint(const std::string& data);
/// data_fingerprint of the table's CSV rendering (verify goldens).
[[nodiscard]] std::uint64_t table_fingerprint(const Table& table);

}  // namespace pimsim::core
