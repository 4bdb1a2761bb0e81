// The sweep_fabric workload: two declarative grids run as shards one
// after another and merged, as `pimsim sweep ... shard=i/N` and `pimsim
// merge` do across processes.
//
//   fig7  ~10k analytic Figure 7 points (a plain grid: rendered blocks)
//   reps  a replicated multithreading grid (reps=1,4: raw-seed points and
//         (point, rep) units with serialized tables)
//
// The simulation does almost nothing here; grid expansion, shard
// planning, rendering, chunk writes and reads, validation and the fold
// are the work.  Every path below is relative to the run's directory.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/error.hpp"
#include "core/chunk.hpp"
#include "core/cli.hpp"
#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
namespace core = pimsim::core;
using pimsim::Config;
using pimsim::Table;

constexpr std::size_t kShards = 4;

struct Grid {
  std::string tag;
  std::string scenario;
  std::string config;  ///< the sweep config file's text
};

std::string axis(double first, double step, int count) {
  std::ostringstream os;
  for (int i = 0; i < count; ++i) os << (i ? "," : "") << first + step * i;
  return os.str();
}

std::vector<Grid> grids(std::uint64_t seed) {
  // Figure 7 rejects NB < 1.  NB >= 1 holds whenever pmiss*tmh <= 16 and
  // tml >= tlcycle + 17 (Table 1 tch=2, tlcycle=5), for any mix in (0, 1];
  // here pmiss*tmh <= 15.
  return {
      {"fig7", "fig7",
       "tmh=" + axis(60, 10, 10) + "\npmiss=" + axis(0.01, 0.01, 10) +
           "\nmix=" + axis(0.1, 0.1, 10) + "\ntml=" + axis(22, 2, 10) + "\n"},
      {"reps", "multithreading",
       "ops=20000\nswitch=0,0.5,1,2\nreps=1,4\nseed=" + std::to_string(seed) +
           "\n"},
  };
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  pimsim::require(in.good(), "cannot read '" + path.string() + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void spill(const fs::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  pimsim::require(out.good(), "cannot write '" + path.string() + "'");
}

std::string config_path(const std::string& dir, const Grid& g) {
  return dir + "/" + g.tag + ".cfg";
}

void write_configs(const std::vector<Grid>& gs, const std::string& dir) {
  for (const Grid& g : gs) spill(config_path(dir, g), g.config);
}

/// A fresh, empty chunk directory: a leftover valid chunk would make the
/// shard a resume no-op.
std::string fresh_dir(const std::string& path) {
  fs::remove_all(path);
  fs::create_directories(path);
  return path;
}

void cli(std::vector<std::string> args) {
  args.insert(args.begin(), "pimsim");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  const int rc = core::cli_main(static_cast<int>(argv.size()), argv.data());
  pimsim::require(rc == 0, "pimsim " + args[1] + " exited " + std::to_string(rc));
}

/// core::data_fingerprint of a file's bytes, read in pieces so that the
/// check never holds a whole merged output and never inflates the run's
/// peak RSS.
std::uint64_t file_fingerprint(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  pimsim::require(in.good(), "cannot read '" + path.string() + "'");
  Fnv1a hash;
  std::vector<char> buffer(1 << 16);
  while (in.read(buffer.data(), static_cast<std::streamsize>(buffer.size())) ||
         in.gcount() > 0) {
    hash.add(buffer.data(), static_cast<std::size_t>(in.gcount()));
  }
  return hash.value;
}

/// Fingerprints of each grid's merged CSV and metrics JSON, written as
/// `<dir>/<tag><suffix>.csv` and `.metrics.json`.
JsonObject fingerprints(const std::vector<Grid>& gs, const std::string& dir,
                        const std::string& suffix) {
  JsonObject out;
  std::string all;
  for (const Grid& g : gs) {
    for (const char* kind : {".csv", ".metrics.json"}) {
      const std::string fp =
          hex(file_fingerprint(dir + "/" + g.tag + suffix + kind));
      out.str(g.tag + kind, fp);
      all += fp;
    }
  }
  return out.str("fingerprint", hex(core::data_fingerprint(all)));
}

// --- the traced pipeline through the public API ----------------------------
//
// `pimsim sweep`'s grid expansion and planning are private to cli.cpp, so
// the traced run re-implements them here (parse_grid, plan_grid) on top of
// the public planner; core.parse_s and core.plan_s time this copy.  The
// untraced run and the set-up run go through cli_main itself.

struct Point {
  Config cfg;
  std::string assignment;  ///< "k=v k2=v2" of the swept axes only
};

struct Plan {
  const core::Scenario* scenario = nullptr;
  std::vector<Point> points;
  core::GridSpec spec;
};

/// Reads a config file and expands its grid as `pimsim sweep` does:
/// comments stripped, a comma in a scalar parameter's value declares an
/// axis, axes nest in file order with the last varying fastest.  (Neither
/// grid's scenario has a `threads` knob, so no inner-thread pin applies.)
Plan parse_grid(const Grid& g, const std::string& dir) {
  Plan plan;
  plan.scenario = &core::ScenarioRegistry::global().get(g.scenario);
  std::istringstream file(slurp(config_path(dir, g)));
  std::vector<std::pair<std::string, std::string>> keys;
  for (std::string line; std::getline(file, line);) {
    line = line.substr(0, line.find('#'));
    std::istringstream tokens(line);
    for (std::string token; tokens >> token;) {
      const auto eq = token.find('=');
      pimsim::require(eq != std::string::npos && eq > 0,
                      "config: expected key=value, got '" + token + "'");
      keys.emplace_back(token.substr(0, eq), token.substr(eq + 1));
    }
  }
  std::vector<std::pair<std::string, std::vector<std::string>>> axes;
  Config base;
  for (const auto& [key, value] : keys) {
    bool is_list = false;
    for (const core::ParamSpec& p : plan.scenario->params) {
      is_list = is_list ||
                (p.key == key && p.kind == core::ParamSpec::Kind::kList);
    }
    if (!is_list && value.find(',') != std::string::npos) {
      axes.emplace_back(key, pimsim::split_csv(value));
    } else {
      base.set(key, value);
    }
  }
  std::size_t total = 1;
  for (const auto& a : axes) total *= a.second.size();
  plan.points.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    Point point{base, ""};
    std::size_t rest = i;
    for (std::size_t a = axes.size(); a-- > 0;) {
      const std::string& v = axes[a].second[rest % axes[a].second.size()];
      rest /= axes[a].second.size();
      point.cfg.set(axes[a].first, v);
      point.assignment = axes[a].first + "=" + v +
                         (point.assignment.empty() ? "" : " ") + point.assignment;
    }
    plan.points.push_back(std::move(point));
  }

  // The grid's identity text, in the form `pimsim sweep` hashes it.
  std::string canonical = "pimsim-grid-v1\n" + g.scenario + "\ncsv\n";
  for (const auto& [key, value] : keys) canonical += key + "=" + value + "\n";
  for (const Point& p : plan.points) canonical += p.assignment + "\n";
  plan.spec.grid_fingerprint = core::data_fingerprint(canonical);
  return plan;
}

/// Weighs every point (or replication unit) by the scenario's cost hint
/// and plans the shards with core::plan_shards.
void plan_grid(Plan& plan) {
  core::GridSpec& spec = plan.spec;
  spec.scenario = plan.scenario->name;
  spec.format = "csv";
  spec.shards = kShards;
  std::vector<double> weights;
  std::vector<std::size_t> reps;
  for (const Point& p : plan.points) {
    spec.assignments.push_back(p.assignment);
    const core::ReplicationSpec rspec = core::replication_spec(*plan.scenario, p.cfg);
    reps.push_back(rspec.reps);
    spec.replicated = spec.replicated || rspec.reps > 1;
    Config probe = p.cfg;
    if (rspec.declared) probe.set("reps", "1");
    double w = 1.0;
    if (plan.scenario->cost_hint) {
      try {
        w = plan.scenario->cost_hint(probe);
      } catch (const std::exception&) {
        w = 1.0;
      }
    }
    weights.push_back(w);
  }
  if (!spec.replicated) {
    spec.shard_of = core::plan_shards(weights, kShards);
    return;
  }
  spec.point_reps = reps;
  std::vector<double> unit_weights;
  for (std::size_t i = 0; i < plan.points.size(); ++i) {
    for (std::size_t r = 0; r < reps[i]; ++r) {
      spec.unit_point.push_back(i);
      spec.unit_rep.push_back(r);
      unit_weights.push_back(weights[i]);
    }
  }
  spec.unit_shard = core::plan_shards(unit_weights, kShards);
  spec.shard_of.assign(plan.points.size(), 0);
  for (std::size_t u = 0; u < spec.unit_point.size(); ++u) {
    if (spec.unit_rep[u] == 0) spec.shard_of[spec.unit_point[u]] = spec.unit_shard[u];
  }
}

std::uint64_t units(const Plan& plan) {
  return plan.spec.replicated ? plan.spec.unit_point.size() : plan.points.size();
}

std::string header(const std::string& scenario, const std::string& assignment) {
  return "# " + scenario + (assignment.empty() ? "" : " " + assignment) + "\n";
}

std::string render_csv(const Table& t) {
  std::ostringstream os;
  t.print_csv(os);
  os << "\n";
  return os.str();
}

/// Computes and writes one shard's chunk; returns its metrics snapshots.
std::vector<std::string> run_shard(const Plan& plan, const std::string& chunks,
                                   std::size_t shard, SpanLog& log) {
  const core::GridSpec& spec = plan.spec;
  std::vector<std::size_t> mine;
  for (std::size_t u = 0; u < units(plan); ++u) {
    const std::size_t owner = spec.replicated ? spec.unit_shard[u] : spec.shard_of[u];
    if (owner == shard) mine.push_back(u);
  }
  pimsim::obs::MetricsHub::global().reset();
  const Clock::time_point start = Clock::now();
  std::vector<Table> tables;
  {
    SpanLog::Scope span(log, "core.generate");
    const std::vector<std::string> extra{"csv", "format", "out"};
    for (const std::size_t u : mine) {
      if (!spec.replicated) {
        tables.push_back(core::run_scenario(*plan.scenario, plan.points[u].cfg, extra));
        continue;
      }
      const std::size_t point = spec.unit_point[u];
      tables.push_back(spec.point_reps[point] == 1
                           ? core::run_scenario(*plan.scenario,
                                                plan.points[point].cfg, extra)
                           : core::run_replication(*plan.scenario,
                                                   plan.points[point].cfg,
                                                   spec.unit_rep[u], extra));
    }
  }
  const double elapsed = seconds_between(start, Clock::now());
  std::vector<core::ChunkPoint> chunk_points(mine.size());
  {
    SpanLog::Scope span(log, spec.replicated ? "core.serialize" : "core.render");
    for (std::size_t i = 0; i < mine.size(); ++i) {
      core::ChunkPoint& p = chunk_points[i];
      if (spec.replicated) {
        p.point = spec.unit_point[mine[i]];
        p.rep = spec.unit_rep[mine[i]];
        p.block = core::serialize_table(tables[i]);
      } else {
        p.point = mine[i];
        p.block = header(spec.scenario, plan.points[p.point].assignment) +
                  render_csv(tables[i]);
      }
      p.assignment = plan.points[p.point].assignment;
      p.fingerprint = core::data_fingerprint(p.block);
    }
  }
  std::vector<std::string> snapshots =
      pimsim::obs::MetricsHub::global().snapshot_bytes();
  SpanLog::Scope span(log, "core.chunk_write");
  core::write_chunk(chunks, spec, shard, chunk_points, snapshots, elapsed);
  return snapshots;
}

/// Reads, validates and merges the chunks as `pimsim merge` does, writing
/// `<dir>/<tag>.trace.csv` and `.trace.metrics.json`.
void merge_chunks(const Grid& g, const std::string& chunks,
                  const std::string& dir, SpanLog& log) {
  std::vector<core::ChunkData> data;
  core::GridSpec spec;
  {
    SpanLog::Scope span(log, "core.chunk_read");
    spec = core::read_manifest(chunks);
    pimsim::require(core::chunks_present(chunks, spec).size() == spec.shards,
                    "merge: chunks missing in '" + chunks + "'");
    for (std::size_t s = 0; s < spec.shards; ++s) {
      data.push_back(core::read_chunk(chunks, spec, s));
    }
  }
  const std::size_t n_points = spec.assignments.size();
  std::vector<std::size_t> offset(n_points, 0);
  if (spec.replicated) {
    for (std::size_t i = 1; i < n_points; ++i) {
      offset[i] = offset[i - 1] + spec.point_reps[i - 1];
    }
  }
  std::vector<std::string> blocks(spec.replicated ? spec.unit_point.size() : n_points);
  for (const core::ChunkData& d : data) {
    for (const core::ChunkPoint& p : d.points) {
      blocks[spec.replicated ? offset[p.point] + p.rep : p.point] = p.block;
    }
  }
  std::vector<Table> folded;
  if (spec.replicated) {
    SpanLog::Scope span(log, "core.fold");
    for (std::size_t i = 0; i < n_points; ++i) {
      std::vector<Table> reps;
      for (std::size_t r = 0; r < spec.point_reps[i]; ++r) {
        reps.push_back(core::deserialize_table(blocks[offset[i] + r]));
      }
      folded.push_back(core::fold_replications(reps));
    }
  }
  std::string merged;
  if (spec.replicated) {
    SpanLog::Scope span(log, "core.render");
    for (std::size_t i = 0; i < n_points; ++i) {
      merged += header(spec.scenario, spec.assignments[i]) + render_csv(folded[i]);
    }
  }
  SpanLog::Scope span(log, "core.merge");
  if (!spec.replicated) {
    for (const std::string& b : blocks) merged += b;
  }
  spill(dir + "/" + g.tag + ".trace.csv", merged);
  pimsim::obs::MetricsHub& hub = pimsim::obs::MetricsHub::global();
  hub.reset();
  for (const core::ChunkData& d : data) {
    for (const std::string& snapshot : d.metrics) hub.absorb_bytes(snapshot);
  }
  std::ofstream metrics(dir + "/" + g.tag + ".trace.metrics.json");
  hub.write_json(metrics);
}

std::uint64_t tree_bytes(const fs::path& dir) {
  std::uint64_t bytes = 0;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) bytes += entry.file_size();
  }
  return bytes;
}

}  // namespace

void sweep_setup(std::uint64_t seed, const std::string& dir) {
  const std::vector<Grid> gs = grids(seed);
  write_configs(gs, dir);
  for (const Grid& g : gs) {
    const std::string chunks = dir + "/" + g.tag + ".chunks";
    for (std::size_t s = 0; s < kShards; ++s) {
      const fs::path chunk =
          fs::path(chunks) / (core::chunk_basename(s, kShards) + ".csv");
      pimsim::require(fs::exists(chunk),
                      "setup: no chunk '" + chunk.string() + "' to resume");
      const fs::file_time_type before = fs::last_write_time(chunk);
      cli({"sweep", g.scenario, "config=" + config_path(dir, g), "format=csv",
           "shard=" + std::to_string(s) + "/" + std::to_string(kShards),
           "out=" + chunks, "jobs=1"});
      pimsim::require(fs::last_write_time(chunk) == before,
                      "setup: shard " + std::to_string(s) + " of " + g.tag +
                          " recomputed its chunk instead of resuming");
    }
  }
}

JsonObject sweep_run(std::uint64_t seed, std::size_t jobs, const std::string& dir) {
  const std::vector<Grid> gs = grids(seed);
  write_configs(gs, dir);
  std::uint64_t total = 0;
  for (const Grid& g : gs) {
    const std::string chunks = fresh_dir(dir + "/" + g.tag + ".chunks");
    for (std::size_t s = 0; s < kShards; ++s) {
      cli({"sweep", g.scenario, "config=" + config_path(dir, g), "format=csv",
           "shard=" + std::to_string(s) + "/" + std::to_string(kShards),
           "out=" + chunks, "jobs=" + std::to_string(jobs)});
    }
    cli({"merge", chunks, "out=" + dir + "/" + g.tag + ".merged.csv",
         "metrics=" + dir + "/" + g.tag + ".merged.metrics.json"});
    const core::GridSpec spec = core::read_manifest(chunks);
    total += spec.replicated ? spec.unit_point.size() : spec.assignments.size();
  }
  return fingerprints(gs, dir, ".merged").num("points", total);
}

JsonObject sweep_reference(std::uint64_t seed, const std::string& dir) {
  const std::vector<Grid> gs = grids(seed);
  write_configs(gs, dir);
  for (const Grid& g : gs) {
    cli({"sweep", g.scenario, "config=" + config_path(dir, g), "format=csv",
         "jobs=1", "out=" + dir + "/" + g.tag + ".ref.csv",
         "metrics=" + dir + "/" + g.tag + ".ref.metrics.json"});
  }
  return fingerprints(gs, dir, ".ref");
}

JsonObject sweep_trace(std::uint64_t seed, const std::string& dir, SpanLog& log) {
  const std::vector<Grid> gs = grids(seed);
  write_configs(gs, dir);
  std::uint64_t total = 0;
  std::uint64_t bytes = 0;
  std::vector<std::string> snapshots;
  for (const Grid& g : gs) {
    Plan plan;
    {
      SpanLog::Scope span(log, "core.parse");
      plan = parse_grid(g, dir);
    }
    {
      SpanLog::Scope span(log, "core.plan");
      plan_grid(plan);
    }
    const std::string chunks = fresh_dir(dir + "/" + g.tag + ".trace");
    {
      SpanLog::Scope span(log, "core.chunk_write");
      core::write_or_check_manifest(chunks, plan.spec);
    }
    for (std::size_t s = 0; s < kShards; ++s) {
      for (std::string& snap : run_shard(plan, chunks, s, log)) {
        snapshots.push_back(std::move(snap));
      }
    }
    merge_chunks(g, chunks, dir, log);
    total += units(plan);
    bytes += tree_bytes(chunks) +
             fs::file_size(dir + "/" + g.tag + ".trace.csv") +
             fs::file_size(dir + "/" + g.tag + ".trace.metrics.json");
  }
  // Leave every grid's metrics in the hub for the caller's exact counts.
  pimsim::obs::MetricsHub& hub = pimsim::obs::MetricsHub::global();
  hub.reset();
  for (const std::string& snapshot : snapshots) hub.absorb_bytes(snapshot);
  return fingerprints(gs, dir, ".trace")
      .num("points", total)
      .num("bytes_written", bytes);
}

}  // namespace perfbench
