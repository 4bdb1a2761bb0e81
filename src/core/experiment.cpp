#include "core/experiment.hpp"

#include <bit>
#include <cstdint>
#include <sstream>
#include <variant>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"

namespace pimsim::core {

std::vector<std::size_t> pow2_range(std::size_t max) {
  require(max >= 1, "pow2_range: max must be >= 1");
  std::vector<std::size_t> out;
  for (std::size_t v = 1; v <= max; v *= 2) {
    out.push_back(v);
    if (v > max / 2) break;  // avoid overflow on the doubling
  }
  return out;
}

std::vector<double> linspace(double lo, double hi, std::size_t count) {
  require(count >= 2, "linspace: need at least two points");
  require(hi >= lo, "linspace: hi must be >= lo");
  std::vector<double> out(count);
  const double step = (hi - lo) / static_cast<double>(count - 1);
  for (std::size_t i = 0; i < count; ++i) {
    out[i] = lo + step * static_cast<double>(i);
  }
  out.back() = hi;  // exact endpoint
  return out;
}

std::vector<double> fraction_range(std::size_t steps) {
  return linspace(0.0, 1.0, steps + 1);
}

std::vector<std::uint64_t> replication_seeds(std::size_t reps,
                                             std::uint64_t base_seed) {
  if (reps < 1) {
    throw InvalidArgument("replication_seeds: need at least one replication");
  }
  std::vector<std::uint64_t> seeds;
  seeds.reserve(reps);
  SplitMix64 seeder(base_seed);
  for (std::size_t i = 0; i < reps; ++i) seeds.push_back(seeder.next());
  return seeds;
}

namespace {

/// Title suffix naming the replication count and confidence level, e.g.
/// " (8 reps, 95% CI)".
std::string fold_suffix(std::size_t reps, double level) {
  std::ostringstream os;
  os << " (" << reps << " reps, " << level * 100.0 << "% CI)";
  return os.str();
}

}  // namespace

Table fold_replications(const std::vector<Table>& tables, double level) {
  if (tables.empty()) {
    throw InvalidArgument("fold_replications: no replications to fold");
  }
  if (tables.size() == 1) return tables[0];

  const Table& first = tables[0];
  for (std::size_t r = 1; r < tables.size(); ++r) {
    const Table& t = tables[r];
    if (t.title() != first.title()) {
      throw InvalidArgument(
          "fold_replications: replication titles diverge ('" + t.title() +
          "' vs '" + first.title() + "'); titles must be seed-independent");
    }
    if (t.columns() != first.columns()) {
      throw InvalidArgument("fold_replications: replication columns diverge");
    }
    if (t.rows() != first.rows()) {
      throw InvalidArgument("fold_replications: replication row counts diverge");
    }
  }

  std::vector<std::string> columns;
  columns.reserve(first.columns().size() * 2);
  for (const std::string& c : first.columns()) {
    columns.push_back(c);
    columns.push_back(c + " ±");
  }
  Table out(first.title() + fold_suffix(tables.size(), level),
            std::move(columns));

  for (std::size_t row = 0; row < first.rows(); ++row) {
    std::vector<Cell> cells;
    cells.reserve(first.columns().size() * 2);
    for (std::size_t col = 0; col < first.columns().size(); ++col) {
      const Cell& head = first.row(row)[col];
      if (const auto* s = std::get_if<std::string>(&head)) {
        for (std::size_t r = 1; r < tables.size(); ++r) {
          const auto* other = std::get_if<std::string>(&tables[r].row(row)[col]);
          if (other == nullptr || *other != *s) {
            throw InvalidArgument(
                "fold_replications: text cells diverge across replications "
                "(row " + std::to_string(row) + ", column '" +
                first.columns()[col] + "')");
          }
        }
        cells.emplace_back(*s);
        cells.emplace_back(std::string());
        continue;
      }
      // Integer cells identical across replications stay integers (axis
      // labels like node counts); anything else folds as a double.
      bool all_same_int = std::holds_alternative<std::int64_t>(head);
      if (all_same_int) {
        const std::int64_t v = std::get<std::int64_t>(head);
        for (std::size_t r = 1; all_same_int && r < tables.size(); ++r) {
          const auto* other =
              std::get_if<std::int64_t>(&tables[r].row(row)[col]);
          all_same_int = other != nullptr && *other == v;
        }
        if (all_same_int) {
          cells.emplace_back(v);
          cells.emplace_back(std::int64_t{0});
          continue;
        }
      }
      RunningStats stats;
      for (const Table& t : tables) {
        const Cell& cell = t.row(row)[col];
        if (const auto* d = std::get_if<double>(&cell)) {
          stats.add(*d);
        } else if (const auto* i = std::get_if<std::int64_t>(&cell)) {
          stats.add(static_cast<double>(*i));
        } else {
          throw InvalidArgument(
              "fold_replications: cell types diverge across replications "
              "(row " + std::to_string(row) + ", column '" +
              first.columns()[col] + "')");
        }
      }
      cells.emplace_back(stats.mean());
      cells.emplace_back(confidence_half_width(stats, level));
    }
    out.add_row(std::move(cells));
  }
  return out;
}

// --- exact table serialization ("pimsim-rep-v1") --------------------------

namespace {

std::string escape_line(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string unescape_line(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (in[i] != '\\' || i + 1 == in.size()) {
      out.push_back(in[i]);
      continue;
    }
    out.push_back(in[++i] == 'n' ? '\n' : in[i]);
  }
  return out;
}

std::string double_bits(double v) {
  static const char* kDigits = "0123456789abcdef";
  auto bits = std::bit_cast<std::uint64_t>(v);
  std::string out(16, '0');
  for (std::size_t i = 16; i-- > 0;) {
    out[i] = kDigits[bits & 0xfU];
    bits >>= 4U;
  }
  return out;
}

[[noreturn]] void bad_rep(const std::string& why) {
  throw InvalidArgument("deserialize_table: malformed pimsim-rep-v1 payload (" +
                        why + ")");
}

std::string next_line(std::istringstream& in, const char* what) {
  std::string line;
  if (!std::getline(in, line)) bad_rep(std::string("missing ") + what);
  return line;
}

std::size_t parse_count(const std::string& line, const char* what) {
  try {
    std::size_t used = 0;
    const auto v = std::stoull(line, &used);
    if (used != line.size() || line.empty()) bad_rep(what);
    return v;
  } catch (const ConfigError&) {
    throw;
  } catch (const std::exception&) {
    bad_rep(what);
  }
}

}  // namespace

std::string serialize_table(const Table& table) {
  std::ostringstream os;
  os << "pimsim-rep-v1\n" << escape_line(table.title()) << "\n"
     << table.columns().size() << "\n";
  for (const std::string& c : table.columns()) os << escape_line(c) << "\n";
  os << table.rows() << "\n";
  for (std::size_t r = 0; r < table.rows(); ++r) {
    for (const Cell& cell : table.row(r)) {
      if (const auto* s = std::get_if<std::string>(&cell)) {
        os << "s " << escape_line(*s) << "\n";
      } else if (const auto* i = std::get_if<std::int64_t>(&cell)) {
        os << "i " << *i << "\n";
      } else {
        os << "d " << double_bits(std::get<double>(cell)) << "\n";
      }
    }
  }
  return os.str();
}

Table deserialize_table(const std::string& bytes) {
  std::istringstream in(bytes);
  if (next_line(in, "schema") != "pimsim-rep-v1") bad_rep("unknown schema");
  const std::string title = unescape_line(next_line(in, "title"));
  const std::size_t n_cols =
      parse_count(next_line(in, "column count"), "bad column count");
  if (n_cols == 0) bad_rep("zero columns");
  // Every column name takes at least its newline, so a count beyond the
  // payload size is corrupt — and must not reach reserve() below.
  if (n_cols > bytes.size()) bad_rep("column count exceeds payload");
  std::vector<std::string> columns;
  columns.reserve(n_cols);
  for (std::size_t c = 0; c < n_cols; ++c) {
    columns.push_back(unescape_line(next_line(in, "column name")));
  }
  Table out(title, std::move(columns));
  const std::size_t n_rows =
      parse_count(next_line(in, "row count"), "bad row count");
  for (std::size_t r = 0; r < n_rows; ++r) {
    std::vector<Cell> cells;
    cells.reserve(n_cols);
    for (std::size_t c = 0; c < n_cols; ++c) {
      const std::string line = next_line(in, "cell");
      if (line.size() < 2 || line[1] != ' ') bad_rep("bad cell line");
      const std::string body = line.substr(2);
      switch (line[0]) {
        case 's': cells.emplace_back(unescape_line(body)); break;
        case 'i': {
          try {
            std::size_t used = 0;
            cells.emplace_back(
                static_cast<std::int64_t>(std::stoll(body, &used)));
            if (used != body.size() || body.empty()) bad_rep("bad int cell");
          } catch (const ConfigError&) {
            throw;
          } catch (const std::exception&) {
            bad_rep("bad int cell");
          }
          break;
        }
        case 'd': {
          if (body.size() != 16) bad_rep("bad double cell");
          std::uint64_t bits = 0;
          for (const char ch : body) {
            std::uint64_t nibble = 0;
            if (ch >= '0' && ch <= '9') {
              nibble = static_cast<std::uint64_t>(ch - '0');
            } else if (ch >= 'a' && ch <= 'f') {
              nibble = static_cast<std::uint64_t>(ch - 'a') + 10;
            } else {
              bad_rep("bad double cell");
            }
            bits = (bits << 4U) | nibble;
          }
          cells.emplace_back(std::bit_cast<double>(bits));
          break;
        }
        default: bad_rep("unknown cell tag");
      }
    }
    out.add_row(std::move(cells));
  }
  std::string rest;
  if (std::getline(in, rest) && !rest.empty()) bad_rep("trailing bytes");
  return out;
}

}  // namespace pimsim::core
