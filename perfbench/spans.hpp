// In-memory span log for the benchmark's traced runs.
//
// A span covers one call into a layer's public API: its name, start,
// end, and the span that was open when it began.  Calls that happen
// millions of times per run (Interconnect::deliver) are tallied instead
// of logged: the caller keeps a count and a total and charges each call's
// time to the enclosing span, so that span's self time excludes it.
// Nothing is written until the run ends (write_json).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Count and total time of one tallied hot-path call site.
struct Tally {
  std::uint64_t count = 0;
  double seconds = 0.0;
};

/// Per-name aggregate over a run.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;  ///< inclusive duration
  double self_s = 0.0;   ///< minus child spans and tallied calls
};

class SpanLog {
 public:
  /// Opens a span on construction and closes it on destruction.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name) : log_(log), index_(log.open(name)) {}
    ~Scope() { log_.close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    std::size_t index_;
  };

  /// Charges `seconds` of tallied calls to the innermost open span.
  void charge(double seconds) {
    if (current_ != kNone) spans_[current_].tallied += seconds;
  }

  /// Registers a tally under `name` so totals() reports it.
  void add_tally(const std::string& name, const Tally& tally) {
    SpanTotals& t = tallies_[name];
    t.count += tally.count;
    t.total_s += tally.seconds;
    t.self_s += tally.seconds;
  }

  /// Spans and tallies aggregated by name.
  [[nodiscard]] std::map<std::string, SpanTotals> totals() const {
    std::map<std::string, SpanTotals> out = tallies_;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      SpanTotals& t = out[spans_[i].name];
      ++t.count;
      t.total_s += spans_[i].end - spans_[i].start;
      t.self_s += self_seconds(i);
    }
    return out;
  }

  /// All spans as {"name","start","end","parent","self"} objects, times in
  /// seconds from the log's creation, parent -1 for a root span.
  void write_json(std::ostream& os) const {
    os << "[\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << "  {\"name\": \"" << s.name << "\", \"start\": " << s.start
         << ", \"end\": " << s.end << ", \"parent\": "
         << (s.parent == kNone ? -1 : static_cast<long long>(s.parent))
         << ", \"self\": " << self_seconds(i) << "}"
         << (i + 1 < spans_.size() ? "," : "") << "\n";
    }
    os << "]\n";
  }

 private:
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);

  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    std::size_t parent = kNone;
    double children = 0.0;  ///< summed durations of direct child spans
    double tallied = 0.0;   ///< tallied calls charged while innermost
  };

  [[nodiscard]] double now() const { return seconds_between(origin_, Clock::now()); }

  [[nodiscard]] double self_seconds(std::size_t i) const {
    const Span& s = spans_[i];
    return (s.end - s.start) - s.children - s.tallied;
  }

  std::size_t open(const char* name) {
    spans_.push_back(Span{name, now(), 0.0, current_, 0.0, 0.0});
    current_ = spans_.size() - 1;
    return current_;
  }

  void close(std::size_t index) {
    Span& s = spans_[index];
    s.end = now();
    if (s.parent != kNone) spans_[s.parent].children += s.end - s.start;
    current_ = s.parent;
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::size_t current_ = kNone;
  std::map<std::string, SpanTotals> tallies_;
};

}  // namespace perfbench
