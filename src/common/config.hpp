// Lightweight key=value configuration used by the pimsim CLI and the
// bench/example binaries to override model parameters from the command
// line, e.g.
//
//     pimsim run fig11 nodes=64 latency=500 premote=0.2 format=csv
//
// Unknown keys are rejected so typos fail loudly.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace pimsim {

/// Splits comma-separated text into its non-empty pieces (the one
/// splitter behind Config::get_list, scenario string lists, and the
/// sweep driver's grid axes).
[[nodiscard]] std::vector<std::string> split_csv(const std::string& text);

/// Parsed key=value options with typed, validated accessors.
class Config {
 public:
  Config() = default;

  /// Parses argv-style "key=value" tokens; throws ConfigError on bad syntax.
  static Config from_args(int argc, const char* const* argv);
  /// Parses a whitespace/comma separated "k=v k2=v2" string.
  static Config from_string(const std::string& text);

  void set(const std::string& key, const std::string& value);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Typed getters; throw ConfigError when the value does not parse (an
  /// integer past int64 included).  The one-argument forms have no
  /// fallback and throw ConfigError on a missing key.
  [[nodiscard]] std::string get_string(const std::string& key,
                                       const std::string& fallback) const;
  [[nodiscard]] std::string get_string(const std::string& key) const;
  [[nodiscard]] double get_double(const std::string& key, double fallback) const;
  [[nodiscard]] double get_double(const std::string& key) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key,
                                     std::int64_t fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& key) const;
  [[nodiscard]] bool get_bool(const std::string& key, bool fallback) const;
  [[nodiscard]] bool get_bool(const std::string& key) const;
  /// Comma-separated list of doubles, e.g. "1,2,4,8".
  [[nodiscard]] std::vector<double> get_list(
      const std::string& key, const std::vector<double>& fallback) const;
  [[nodiscard]] std::vector<double> get_list(const std::string& key) const;
  /// Comma-separated list of integers; a fraction throws, never truncates.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& key) const;

  /// Keys that were set but never read; used to reject typos after setup.
  [[nodiscard]] std::vector<std::string> unused_keys() const;
  /// Throws ConfigError listing any unused keys.
  void reject_unused() const;

 private:
  /// Marks `key` read and returns its text; throws ConfigError if unset.
  [[nodiscard]] const std::string& at(const std::string& key) const;

  std::map<std::string, std::string> values_;
  mutable std::set<std::string> used_;
};

}  // namespace pimsim
