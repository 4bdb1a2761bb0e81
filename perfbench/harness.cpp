// perfbench_harness: runs one benchmark workload through pimsim's public
// API and prints one JSON line.  run.py spawns it once per measured run,
// so every run pays process start like a `pimsim` user does.
//
//   perfbench_harness run <workload> <seed> <threads> <dir> [key=value ...]
//       The timed workload: a figure through core::run_scenario, or the
//       sharded sweep through core::cli_main.  Prints output fingerprints.
//   perfbench_harness setup <workload> <seed> <dir>
//       Everything before the first point starts; prints the
//       CLOCK_MONOTONIC time (ns) at which it got there.  For the sweep,
//       <dir> must already hold a finished run's chunk directories.
//   perfbench_harness reference <workload> <seed> <dir>
//       sweep_fabric only: the unsharded sweep the merge must reproduce.
//   perfbench_harness trace <workload> <seed> <dir>
//       The same work with a span around each call into a layer and the
//       metrics registry on; writes <dir>/spans.json.
//   perfbench_harness hold <seed>
//       The event-calendar hold-model probe at two depths.
//   perfbench_harness meta
//       Compiler and build type of this binary.
//
// Every mode's JSON line ends with the process's peak resident set.
#include <time.h>

#include <bit>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "analytic/parcel_model.hpp"
#include "arch/host_system.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "core/experiment.hpp"
#include "core/figures.hpp"
#include "core/scenario.hpp"
#include "des/simulation.hpp"
#include "harness.hpp"
#include "interconnect/contention.hpp"
#include "parcel/network.hpp"
#include "parcel/system.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using pimsim::Config;
using pimsim::Table;
namespace core = pimsim::core;
namespace parcel = pimsim::parcel;

std::uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// --- figure workloads -----------------------------------------------------

/// Forwards every call to the interconnect the run would have built
/// itself, counting and timing deliver() and sampling the calendar depth
/// at each message.  Passing it as `net` leaves the model unchanged.
class TallyingInterconnect final : public parcel::Interconnect {
 public:
  struct Counts {
    Tally deliver;
    std::uint64_t pending_sum = 0;  ///< events pending, summed per deliver
  };

  TallyingInterconnect(std::unique_ptr<parcel::Interconnect> inner,
                       SpanLog& log, Counts& counts)
      : inner_(std::move(inner)), log_(log), counts_(counts) {}

  [[nodiscard]] pimsim::Cycles one_way_latency(parcel::NodeId src,
                                               parcel::NodeId dst) const override {
    return inner_->one_way_latency(src, dst);
  }
  const char* name() const override { return inner_->name(); }
  void deliver(pimsim::des::Simulation& sim, parcel::NodeId src,
               parcel::NodeId dst, std::size_t bytes,
               std::function<void()> arrive) const override {
    counts_.pending_sum += sim.events_pending();
    const Clock::time_point start = Clock::now();
    inner_->deliver(sim, src, dst, bytes, std::move(arrive));
    const double s = seconds_between(start, Clock::now());
    ++counts_.deliver.count;
    counts_.deliver.seconds += s;
    log_.charge(s);
  }
  [[nodiscard]] std::size_t idle_processes() const override {
    return inner_->idle_processes();
  }
  void collect_metrics(pimsim::obs::MetricsRegistry& registry) const override {
    inner_->collect_metrics(registry);
  }

 private:
  std::unique_ptr<parcel::Interconnect> inner_;
  SpanLog& log_;
  Counts& counts_;
};

/// What a traced figure run hands back besides its table.
struct TraceContext {
  SpanLog log;
  TallyingInterconnect::Counts net;

  /// The interconnect run_*_system would build from `p`, wrapped.
  std::unique_ptr<parcel::Interconnect> make_net(
      const parcel::SplitTransactionParams& p) {
    std::unique_ptr<parcel::Interconnect> inner;
    if (p.contention) {
      inner = pimsim::interconnect::make_contention_interconnect(
          p.network, p.nodes, p.round_trip_latency);
    } else {
      inner = parcel::make_interconnect(p.network, p.nodes, p.round_trip_latency);
    }
    return std::make_unique<TallyingInterconnect>(std::move(inner), log, net);
  }
};

std::vector<std::size_t> as_sizes(const std::vector<double>& values) {
  std::vector<std::size_t> out;
  for (const double v : values) out.push_back(static_cast<std::size_t>(v));
  return out;
}

/// The parcel-figure keys fig11 and fig12 share, read as their
/// registrations read them.
void read_parcel_keys(const Config& cfg, parcel::SplitTransactionParams& p) {
  p.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
  p.network = cfg.get_string("network", p.network);
  p.contention = cfg.get_bool("contention", false);
  p.memory = cfg.get_string("memory", "analytic");
  p.mem_banks = static_cast<std::size_t>(cfg.get_int("mem_banks", 0));
  p.mem_queue = static_cast<std::size_t>(cfg.get_int("mem_queue", 0));
  p.message_bytes = static_cast<std::size_t>(
      cfg.get_int("bytes", static_cast<std::int64_t>(p.message_bytes)));
}

// The traced decompositions below replay core::make_fig12/11/5 call by
// call with a span around each layer call.  The trace run checks that
// each one's table fingerprint equals the untraced run's.

Table trace_fig12(const Config& cfg, TraceContext& tc) {
  core::ParcelFigureConfig fig = core::ParcelFigureConfig::defaults_fig12();
  {
    SpanLog::Scope parse(tc.log, "core.parse");
    fig.base.horizon = cfg.get_double("horizon", 20'000.0);
    fig.base.round_trip_latency = cfg.get_double("latency", 200.0);
    fig.base.p_remote = cfg.get_double("premote", 0.1);
    read_parcel_keys(cfg, fig.base);
    fig.node_counts = as_sizes(
        cfg.get_list("sizes", {1, 2, 4, 8, 16, 32, 64, 128, 256}));
    fig.parallelism = as_sizes(cfg.get_list("pars", {1, 2, 4, 8, 16, 32}));
  }
  SpanLog::Scope generate(tc.log, "core.generate");
  Table t("Figure 12: Idle Time with respect to Degree of Parallelism",
          {"Nodes", "Parallelism", "test idle %", "control idle %"});
  for (const std::size_t nodes : fig.node_counts) {
    parcel::SplitTransactionParams base = fig.base;
    base.nodes = nodes;
    double control_idle = 0.0;
    {
      SpanLog::Scope span(tc.log, "parcel.control");
      const auto net = tc.make_net(base);
      control_idle =
          parcel::run_message_passing_system(base, net.get()).mean_idle_fraction();
    }
    for (const std::size_t par : fig.parallelism) {
      parcel::SplitTransactionParams p = base;
      p.parallelism = par;
      double test_idle = 0.0;
      {
        SpanLog::Scope span(tc.log, "parcel.test");
        const auto net = tc.make_net(p);
        test_idle =
            parcel::run_split_transaction_system(p, net.get()).mean_idle_fraction();
      }
      t.add_row({static_cast<std::int64_t>(nodes), static_cast<std::int64_t>(par),
                 test_idle * 100.0, control_idle * 100.0});
    }
  }
  return t;
}

Table trace_fig11(const Config& cfg, TraceContext& tc) {
  core::ParcelFigureConfig fig = core::ParcelFigureConfig::defaults_fig11();
  {
    SpanLog::Scope parse(tc.log, "core.parse");
    fig.base.nodes = static_cast<std::size_t>(cfg.get_int("nodes", 8));
    fig.base.horizon = cfg.get_double("horizon", 30'000.0);
    fig.base.t_switch = cfg.get_double("tswitch", fig.base.t_switch);
    fig.base.t_local = cfg.get_double("tlocal", fig.base.t_local);
    read_parcel_keys(cfg, fig.base);
    fig.latencies = cfg.get_list("latencies", {10, 50, 100, 200, 500, 1000, 2000});
    fig.remote_fractions =
        cfg.get_list("remotes", {0.02, 0.05, 0.10, 0.20, 0.50});
    fig.parallelism = as_sizes(cfg.get_list("pars", {1, 2, 4, 8, 16, 32}));
  }
  SpanLog::Scope generate(tc.log, "core.generate");
  Table t("Figure 11: Latency Hiding with Parcels (ops ratio test/control)",
          {"Parallelism", "%remote", "Latency (cycles)", "ratio",
           "ratio (model)", "ratio (MVA)"});
  for (const double remote : fig.remote_fractions) {
    for (const double latency : fig.latencies) {
      parcel::SplitTransactionParams base = fig.base;
      base.p_remote = remote;
      base.round_trip_latency = latency;
      double control_work = 0.0;
      {
        SpanLog::Scope span(tc.log, "parcel.control");
        const auto net = tc.make_net(base);
        control_work =
            parcel::run_message_passing_system(base, net.get()).total_work();
      }
      for (const std::size_t par : fig.parallelism) {
        parcel::SplitTransactionParams p = base;
        p.parallelism = par;
        double test_work = 0.0;
        {
          SpanLog::Scope span(tc.log, "parcel.test");
          const auto net = tc.make_net(p);
          test_work =
              parcel::run_split_transaction_system(p, net.get()).total_work();
        }
        t.add_row({static_cast<std::int64_t>(par), remote * 100.0, latency,
                   test_work / control_work,
                   pimsim::analytic::predicted_ratio(p),
                   pimsim::analytic::predicted_ratio_mva(p)});
      }
    }
  }
  return t;
}

Table trace_fig5(const Config& cfg, TraceContext& tc) {
  core::HostFigureConfig fig = core::HostFigureConfig::defaults_fig5();
  {
    SpanLog::Scope parse(tc.log, "core.parse");
    fig.node_counts =
        core::pow2_range(static_cast<std::size_t>(cfg.get_int("maxnodes", 256)));
    fig.base.workload.total_ops =
        static_cast<std::uint64_t>(cfg.get_int("ops", 100'000'000));
    fig.base.batch_ops =
        static_cast<std::uint64_t>(cfg.get_int("batch", 1'000'000));
    fig.base.seed = static_cast<std::uint64_t>(cfg.get_int("seed", 1));
    fig.base.memory.kind = cfg.get_string("memory", "analytic");
    fig.base.memory.banks = static_cast<std::size_t>(cfg.get_int("mem_banks", 0));
    fig.base.memory.queue = static_cast<std::size_t>(cfg.get_int("mem_queue", 0));
  }
  SpanLog::Scope generate(tc.log, "core.generate");
  std::vector<std::string> cols{"%WL"};
  for (const std::size_t n : fig.node_counts) {
    cols.push_back("gain N=" + std::to_string(n));
  }
  Table t("Figure 5: Simulation of Performance Gain (test vs control)", cols);
  // make_fig5 runs one replication per point: every point's seed is the
  // first draw of the base seed's stream.
  const std::uint64_t seed = core::replication_seeds(1, fig.base.seed)[0];
  for (const double fraction : fig.lwp_fractions) {
    std::vector<pimsim::Cell> row{fraction * 100.0};
    for (const std::size_t nodes : fig.node_counts) {
      pimsim::arch::HostConfig point = fig.base;
      point.workload.lwp_fraction = fraction;
      point.lwp_nodes = nodes;
      point.seed = seed;
      double test = 0.0;
      double control = 0.0;
      {
        SpanLog::Scope span(tc.log, "arch.host");
        test = pimsim::arch::run_host_system(point).total_cycles;
      }
      {
        SpanLog::Scope span(tc.log, "arch.control");
        control = pimsim::arch::run_control_system(point).total_cycles;
      }
      pimsim::require(test > 0.0, "trace_fig5: empty test run");
      row.push_back(control / test);
    }
    t.add_row(std::move(row));
  }
  return t;
}

struct Figure {
  const char* workload;
  const char* scenario;
  const char* params;  ///< fixed scenario parameters besides seed/threads
  Table (*trace)(const Config&, TraceContext&);
};

// The figure workloads (README.md says why each was chosen).
const Figure kFigures[] = {
    {"fig12_parcel", "fig12", "", trace_fig12},
    {"fig11_packet", "fig11",
     "network=mesh2d nodes=16 contention=1 horizon=30000", trace_fig11},
    {"fig5_banked", "fig5", "memory=banked ops=1000000 maxnodes=64", trace_fig5},
};

const Figure* find_figure(const std::string& workload) {
  for (const Figure& f : kFigures) {
    if (workload == f.workload) return &f;
  }
  return nullptr;
}

Config figure_config(const Figure& fig, std::uint64_t seed,
                     const std::string& threads,
                     const std::vector<std::string>& overrides) {
  std::string text = std::string(fig.params) + " seed=" + std::to_string(seed) +
                     " threads=" + threads;
  for (const std::string& o : overrides) text += " " + o;
  return Config::from_string(text);
}

/// Simulated design points in a figure's table: one per result cell.
std::uint64_t figure_points(const Table& t) {
  // fig5 holds a grid of gains per row; fig11/fig12 hold one point per row.
  const bool grid = t.columns().front() == "%WL";
  return t.rows() * (grid ? t.columns().size() - 1 : 1);
}

JsonObject figure_run(const Figure& fig, std::uint64_t seed,
                      const std::string& threads,
                      const std::vector<std::string>& overrides) {
  const core::Scenario& scenario =
      core::ScenarioRegistry::global().get(fig.scenario);
  const Table t =
      core::run_scenario(scenario, figure_config(fig, seed, threads, overrides));
  return JsonObject()
      .str("fingerprint", hex(core::table_fingerprint(t)))
      .num("points", figure_points(t));
}

/// run_scenario's own path up to generation: registry lookup, unknown-key
/// check, typed pre-parse of every value and the replication dispatch.
/// A copy of the scenario whose generator only records that it was
/// reached stops it where the first point would start.
void figure_setup(const Figure& fig, std::uint64_t seed) {
  core::Scenario stub = core::ScenarioRegistry::global().get(fig.scenario);
  bool reached = false;
  stub.make = [&reached](const Config&) {
    reached = true;
    return Table("setup", {"none"});
  };
  (void)core::run_scenario(stub, figure_config(fig, seed, "1", {}));
  pimsim::require(reached, "setup: run_scenario did not reach the generator");
}

JsonObject figure_trace(const Figure& fig, std::uint64_t seed,
                        const std::string& dir) {
  TraceContext tc;
  {
    SpanLog::Scope parse(tc.log, "core.parse");
    (void)core::ScenarioRegistry::global().get(fig.scenario);
  }
  const Table t = fig.trace(figure_config(fig, seed, "1", {}), tc);
  std::uint64_t fingerprint = 0;
  {
    SpanLog::Scope render(tc.log, "core.render");
    fingerprint = core::table_fingerprint(t);
  }
  tc.log.add_tally("parcel.deliver", tc.net.deliver);
  std::ofstream spans(dir + "/spans.json");
  tc.log.write_json(spans);
  return JsonObject()
      .str("fingerprint", hex(fingerprint))
      .num("points", figure_points(t))
      .num("pending_sum", tc.net.pending_sum)
      .raw("spans", totals_json(tc.log))
      .raw("counts", counts_json());
}

// --- des hold-model probe -------------------------------------------------

/// Jones's hold model (CACM 1986): a fixed population of events, each of
/// which reschedules itself once per firing after a seeded exponential
/// delay, so the calendar stays at `depth` entries while it runs.  The
/// firing order is hashed inside the callbacks (time bits, dispatch
/// sequence, event id), so a different calendar can be shown to give the
/// same (time, seq) order as well as its speed.
class HoldProbe {
 public:
  HoldProbe(std::uint64_t seed, std::size_t depth, std::uint64_t holds)
      : rng_(seed, /*stream_id=*/depth), depth_(depth), remaining_(holds) {}

  JsonObject run() {
    for (std::size_t id = 0; id < depth_; ++id) {
      schedule(static_cast<std::uint32_t>(id));
    }
    const Clock::time_point start = Clock::now();
    sim_.run();
    const double elapsed = seconds_between(start, Clock::now());
    const std::uint64_t events = sim_.events_dispatched();
    return JsonObject()
        .num("depth", static_cast<std::uint64_t>(depth_))
        .num("events", events)
        .num("ns_per_event", elapsed * 1e9 / static_cast<double>(events))
        .str("order_hash", hex(hash_.value));
  }

 private:
  void schedule(std::uint32_t id) {
    sim_.schedule_in(rng_.exponential(1.0), [this, id] { fire(id); });
  }

  void fire(std::uint32_t id) {
    const std::uint64_t words[3] = {std::bit_cast<std::uint64_t>(sim_.now()),
                                    sim_.current_dispatch_seq(), id};
    hash_.add(reinterpret_cast<const char*>(words), sizeof(words));
    if (remaining_ == 0) return;
    --remaining_;
    schedule(id);
  }

  pimsim::des::Simulation sim_;
  pimsim::Rng rng_;
  std::size_t depth_;
  std::uint64_t remaining_;
  Fnv1a hash_;
};

// Calendar depths like fig11's (about 15-140 events pending when a
// message is sent) and fig12's 256-node panel (about 230-970); README.md
// gives the measurement.
constexpr std::size_t kHoldSmall = 64;
constexpr std::size_t kHoldLarge = 1024;
constexpr std::uint64_t kHolds = 2'000'000;

JsonObject hold(std::uint64_t seed) {
  return JsonObject()
      .raw("small", HoldProbe(seed, kHoldSmall, kHolds).run().dump())
      .raw("large", HoldProbe(seed, kHoldLarge, kHolds).run().dump());
}

// --- entry point ----------------------------------------------------------

std::uint64_t parse_seed(const std::string& text) {
  std::size_t used = 0;
  const unsigned long long value = std::stoull(text, &used);
  pimsim::require(used == text.size(), "seed must be a non-negative integer");
  return value;
}

JsonObject dispatch(const std::vector<std::string>& args) {
  const std::string usage =
      "usage: perfbench_harness run|setup|reference|trace <workload> <seed> "
      "... | hold <seed> | meta";
  pimsim::require(!args.empty(), usage);
  const std::string& mode = args[0];
  if (mode == "meta") {
    return JsonObject()
        .str("compiler", PERFBENCH_COMPILER)
        .str("build_type", PERFBENCH_BUILD_TYPE);
  }
  if (mode == "hold") {
    pimsim::require(args.size() == 2, usage);
    return hold(parse_seed(args[1]));
  }
  pimsim::require(args.size() >= 4, usage);
  const std::string& workload = args[1];
  const std::uint64_t seed = parse_seed(args[2]);
  const Figure* fig = find_figure(workload);
  const bool sweep = workload == "sweep_fabric";
  pimsim::require(fig != nullptr || sweep, "unknown workload '" + workload + "'");

  if (mode == "run") {
    pimsim::require(args.size() >= 5, usage);
    const std::string& threads = args[3];
    const std::string& dir = args[4];
    std::filesystem::create_directories(dir);
    if (sweep) return sweep_run(seed, std::stoul(threads), dir);
    return figure_run(*fig, seed, threads, {args.begin() + 5, args.end()});
  }
  const std::string& dir = args[3];
  std::filesystem::create_directories(dir);
  if (mode == "setup") {
    if (sweep) {
      sweep_setup(seed, dir);
    } else {
      figure_setup(*fig, seed);
    }
    return JsonObject().num("setup_done_ns", monotonic_ns());
  }
  if (mode == "reference") {
    pimsim::require(sweep, "reference: only sweep_fabric has one");
    return sweep_reference(seed, dir);
  }
  if (mode == "trace") {
    // Every Simulation built from here on fills a metrics registry that
    // folds into the process-wide hub when it is destroyed.
    ::setenv("PIMSIM_METRICS", "1", 1);
    pimsim::obs::MetricsHub::global().reset();
    if (!sweep) return figure_trace(*fig, seed, dir);
    SpanLog log;
    JsonObject out = sweep_trace(seed, dir, log);
    std::ofstream spans(dir + "/spans.json");
    log.write_json(spans);
    return out.raw("spans", totals_json(log)).raw("counts", counts_json());
  }
  throw pimsim::InvalidArgument(usage);
}

}  // namespace

/// This process's own peak resident set (VmHWM).  Unlike wait4's
/// ru_maxrss, it starts afresh at exec, so the spawning runner's
/// footprint does not carry over into it.
std::uint64_t peak_rss_kib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  throw pimsim::InvalidArgument("peak_rss_kib: no VmHWM in /proc/self/status");
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    perfbench::JsonObject out = perfbench::dispatch({argv + 1, argv + argc});
    std::cout << out.num("peak_rss_kib", perfbench::peak_rss_kib()).dump() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench_harness: " << e.what() << "\n";
    return 1;
  }
}
