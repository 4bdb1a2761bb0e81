// Shared pieces of the perfbench harness (see README.md): the JSON line
// every mode prints, and the sweep-fabric workload (fabric.cpp).
#pragma once

#include <cstdint>
#include <iomanip>
#include <limits>
#include <map>
#include <sstream>
#include <string>

#include "obs/metrics.hpp"
#include "spans.hpp"

namespace perfbench {

/// One flat JSON object, built key by key.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quote(key) + ": " + json;
    return *this;
  }
  JsonObject& str(const std::string& key, const std::string& value) {
    return raw(key, quote(value));
  }
  JsonObject& num(const std::string& key, double value) {
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10) << value;
    return raw(key, os.str());
  }
  JsonObject& num(const std::string& key, std::uint64_t value) {
    return raw(key, std::to_string(value));
  }
  [[nodiscard]] std::string dump() const { return "{" + body_ + "}"; }

  [[nodiscard]] static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
      if (c == '"' || c == '\\') out += '\\';
      out += c;
    }
    return out + "\"";
  }

 private:
  std::string body_;
};

/// FNV-1a 64, the hash behind core::data_fingerprint, fed incrementally.
struct Fnv1a {
  std::uint64_t value = 1469598103934665603ULL;
  void add(const char* data, std::size_t size) {
    for (std::size_t i = 0; i < size; ++i) {
      value ^= static_cast<unsigned char>(data[i]);
      value *= 1099511628211ULL;
    }
  }
};

[[nodiscard]] inline std::string hex(std::uint64_t value) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << value;
  return os.str();
}

/// Span totals as {"name": {"count", "total_s", "self_s"}, ...}.
[[nodiscard]] inline std::string totals_json(const SpanLog& log) {
  JsonObject out;
  for (const auto& [name, t] : log.totals()) {
    out.raw(name, JsonObject()
                      .num("count", t.count)
                      .num("total_s", t.total_s)
                      .num("self_s", t.self_s)
                      .dump());
  }
  return out.dump();
}

/// The exact model counts the traced runs compare across reruns, read
/// from the process-wide metrics hub.  `metrics_fingerprint` covers every
/// metric's full state (sketch bins and moments included), so simulated
/// statistics such as latency summaries must also repeat bit for bit.
[[nodiscard]] inline std::string counts_json() {
  pimsim::obs::MetricsRegistry all = pimsim::obs::MetricsHub::global().aggregate();
  return JsonObject()
      .num("des.events_dispatched", all.counter("des.events_dispatched").value())
      .num("parcel.request_rtt_count",
           all.summary("parcel.request_rtt_cycles").count())
      .num("msg.request_rtt_count", all.summary("msg.request_rtt_cycles").count())
      .num("net.flit_hops", all.counter("net.flit_hops").value())
      .num("net.packets_sent", all.counter("net.packets_sent").value())
      .num("net.packets_delivered", all.counter("net.packets_delivered").value())
      .num("mem.accesses", all.counter("mem.accesses").value())
      .num("mem.row_hits", all.counter("mem.row_hits").value())
      .str("metrics_fingerprint", hex(all.fingerprint()))
      .dump();
}

/// Peak resident set of this process in KiB (VmHWM).
[[nodiscard]] std::uint64_t peak_rss_kib();

// --- the sweep_fabric workload (fabric.cpp) ------------------------------

/// The sweep's set-up through `pimsim sweep ... shard=i/4` itself: every
/// shard of both grids against the chunk directories a finished run left
/// in `dir`, so each invocation reads its config, expands and plans the
/// grid, checks the manifest and the existing chunk, and computes no point.
/// Throws if any shard recomputed its chunk.
void sweep_setup(std::uint64_t seed, const std::string& dir);

/// Runs both grids as 4 shards one after another (each with `jobs`
/// sweep threads) through `pimsim sweep ... shard=i/4`, then `pimsim
/// merge`.  Returns the merged outputs' fingerprints and the units run.
[[nodiscard]] JsonObject sweep_run(std::uint64_t seed, std::size_t jobs,
                                   const std::string& dir);

/// The unsharded, single-thread `pimsim sweep` of both grids: the
/// reference the merged outputs must equal byte for byte.
[[nodiscard]] JsonObject sweep_reference(std::uint64_t seed,
                                         const std::string& dir);

/// The traced run: the same shard + merge pipeline driven through the
/// public planner, chunk, replication and metrics functions, one span
/// around each call.  Returns fingerprints and the core.* byte count.
[[nodiscard]] JsonObject sweep_trace(std::uint64_t seed, const std::string& dir,
                                     SpanLog& log);

}  // namespace perfbench
