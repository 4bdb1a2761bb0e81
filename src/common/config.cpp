#include "common/config.hpp"

#include <cerrno>
#include <cstdlib>
#include <sstream>

#include "common/error.hpp"

namespace pimsim {

std::vector<std::string> split_csv(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in(text);
  std::string piece;
  while (std::getline(in, piece, ',')) {
    if (!piece.empty()) out.push_back(piece);
  }
  return out;
}

Config Config::from_args(int argc, const char* const* argv) {
  Config cfg;
  for (int i = 1; i < argc; ++i) {
    const std::string tok = argv[i];
    // Ignore google-benchmark style flags so mixed invocations work.
    if (tok.rfind("--", 0) == 0) continue;
    const auto eq = tok.find('=');
    require(eq != std::string::npos && eq > 0,
            "Config: expected key=value, got '" + tok + "'");
    cfg.set(tok.substr(0, eq), tok.substr(eq + 1));
  }
  return cfg;
}

Config Config::from_string(const std::string& text) {
  // Whitespace-separated key=value tokens. Commas are NOT separators here:
  // they belong to list values such as "nodes=1,2,4".
  Config cfg;
  std::string token;
  std::istringstream in(text);
  while (in >> token) {
    const auto eq = token.find('=');
    require(eq != std::string::npos && eq > 0,
            "Config: expected key=value, got '" + token + "'");
    cfg.set(token.substr(0, eq), token.substr(eq + 1));
  }
  return cfg;
}

void Config::set(const std::string& key, const std::string& value) {
  values_[key] = value;
}

bool Config::has(const std::string& key) const {
  used_.insert(key);
  return values_.count(key) > 0;
}

namespace {

double parse_double(const std::string& key, const std::string& text) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  require(end != nullptr && *end == '\0' && end != text.c_str(), [&] {
    return "Config: value for '" + key + "' is not a number: " + text;
  });
  return v;
}

std::int64_t parse_int(const std::string& key, const std::string& text) {
  char* end = nullptr;
  errno = 0;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  require(end != nullptr && *end == '\0' && end != text.c_str(), [&] {
    return "Config: value for '" + key + "' is not an integer: " + text;
  });
  // strtoll clamps out-of-range text to INT64_MAX/MIN; refuse, not misread.
  require(errno != ERANGE, [&] {
    return "Config: value for '" + key + "' is outside int64: " + text;
  });
  return v;
}

}  // namespace

const std::string& Config::at(const std::string& key) const {
  used_.insert(key);
  const auto it = values_.find(key);
  require(it != values_.end(), [&] { return "Config: missing key '" + key + "'"; });
  return it->second;
}

std::string Config::get_string(const std::string& key) const { return at(key); }

double Config::get_double(const std::string& key) const {
  return parse_double(key, at(key));
}

std::int64_t Config::get_int(const std::string& key) const {
  return parse_int(key, at(key));
}

bool Config::get_bool(const std::string& key) const {
  const std::string& s = at(key);
  if (s == "1" || s == "true" || s == "yes" || s == "on") return true;
  if (s == "0" || s == "false" || s == "no" || s == "off") return false;
  throw ConfigError("Config: value for '" + key + "' is not a bool: " + s);
}

std::vector<double> Config::get_list(const std::string& key) const {
  std::vector<double> out;
  for (const std::string& piece : split_csv(at(key))) {
    out.push_back(parse_double(key, piece));
  }
  require(!out.empty(), [&] { return "Config: list for '" + key + "' is empty"; });
  return out;
}

std::vector<std::int64_t> Config::get_int_list(const std::string& key) const {
  std::vector<std::int64_t> out;
  for (const std::string& piece : split_csv(at(key))) {
    out.push_back(parse_int(key, piece));
  }
  require(!out.empty(), [&] { return "Config: list for '" + key + "' is empty"; });
  return out;
}

std::string Config::get_string(const std::string& key,
                               const std::string& fallback) const {
  return has(key) ? get_string(key) : fallback;
}

double Config::get_double(const std::string& key, double fallback) const {
  return has(key) ? get_double(key) : fallback;
}

std::int64_t Config::get_int(const std::string& key, std::int64_t fallback) const {
  return has(key) ? get_int(key) : fallback;
}

bool Config::get_bool(const std::string& key, bool fallback) const {
  return has(key) ? get_bool(key) : fallback;
}

std::vector<double> Config::get_list(const std::string& key,
                                     const std::vector<double>& fallback) const {
  return has(key) ? get_list(key) : fallback;
}

std::vector<std::string> Config::unused_keys() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : values_) {
    (void)v;
    if (used_.count(k) == 0) out.push_back(k);
  }
  return out;
}

void Config::reject_unused() const {
  const auto unused = unused_keys();
  if (unused.empty()) return;
  std::string msg = "Config: unknown key(s):";
  for (const auto& k : unused) msg += " " + k;
  throw ConfigError(msg);
}

}  // namespace pimsim
