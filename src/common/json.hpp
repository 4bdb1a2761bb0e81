// JSON string escaping, shared by every JSON writer (the scenario
// inventory and `format=json` tables, sweep chunk manifests, metrics dumps
// and Chrome traces) together with its inverse for the manifest reader.
#pragma once

#include <string>
#include <string_view>

namespace pimsim {

/// Escapes `"`, `\`, newline and tab for a JSON string literal; every
/// other byte passes through unchanged.
inline std::string json_escape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

/// Inverse of json_escape: `\n` and `\t` decode to their control
/// characters and any other escaped byte (`\"`, `\\`) to itself.
inline std::string json_unescape(std::string_view in) {
  std::string out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] != '\\' || i + 1 == in.size()) {
      out.push_back(in[i]);
      continue;
    }
    switch (in[++i]) {
      case 'n': out.push_back('\n'); break;
      case 't': out.push_back('\t'); break;
      default: out.push_back(in[i]);
    }
  }
  return out;
}

}  // namespace pimsim
