#include "common/table.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <ostream>
#include <string_view>
#include <system_error>

#include "common/error.hpp"

namespace pimsim {

Table::Table(std::string title, std::vector<std::string> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {
  require(!columns_.empty(), "Table: need at least one column");
}

void Table::add_row(std::vector<Cell> cells) {
  require(cells.size() == columns_.size(),
          "Table::add_row: cell count does not match column count");
  rows_.push_back(std::move(cells));
}

const std::vector<Cell>& Table::row(std::size_t i) const {
  require(i < rows_.size(), "Table::row: index out of range");
  return rows_[i];
}

double Table::number_at(std::size_t r, std::size_t c) const {
  const auto& cell = row(r).at(c);
  if (const auto* d = std::get_if<double>(&cell)) return *d;
  if (const auto* i = std::get_if<std::int64_t>(&cell)) {
    return static_cast<double>(*i);
  }
  throw ConfigError("Table::number_at: cell is not numeric");
}

namespace {

/// Room format_number_to needs: its longest output ("-10000000.0000")
/// with margin.
constexpr std::size_t kNumberChars = 32;

/// Writes format_number(v) to [out, out + kNumberChars) without
/// allocating; returns one past the last character written.
char* format_number_to(char* out, double v) {
  if (v == 0.0) {
    *out = '0';
    return out + 1;
  }
  char* const last = out + kNumberChars;
  const double a = std::fabs(v);
  // Snap floating-point noise (e.g. 30.000000000000004) to the integer.
  const bool near_int =
      std::fabs(v - std::nearbyint(v)) <= 1e-9 * std::fmax(a, 1.0);
  // Each to_chars call below is the printf-equivalent form the standard
  // defines for (format, precision): "%.4g", "%.0f" and "%.4f".
  std::to_chars_result r{};
  if (a >= 1e7 || a < 1e-3) {
    r = std::to_chars(out, last, v, std::chars_format::general, 4);
  } else if (near_int) {
    r = std::to_chars(out, last, std::nearbyint(v), std::chars_format::fixed, 0);
  } else {
    r = std::to_chars(out, last, v, std::chars_format::fixed, 4);
  }
  ensure(r.ec == std::errc(), "format_number_to: output exceeds kNumberChars");
  return r.ptr;
}

/// Appends a cell's text: strings verbatim, doubles by format_number_to,
/// integers in decimal.
void append_cell(std::string& out, const Cell& c) {
  if (const auto* s = std::get_if<std::string>(&c)) {
    out += *s;
    return;
  }
  char buf[kNumberChars];
  char* end = nullptr;
  if (const auto* d = std::get_if<double>(&c)) {
    end = format_number_to(buf, *d);
  } else {
    end = std::to_chars(buf, buf + sizeof buf, std::get<std::int64_t>(c)).ptr;
  }
  out.append(buf, end);
}

/// Appends `s` as one CSV field, quoted when it holds a comma, quote or
/// newline.  Number cells never do, so they skip this.
void append_csv_field(std::string& out, const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) {
    out += s;
    return;
  }
  out += '"';
  for (char ch : s) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
}

}  // namespace

std::string format_number(double v) {
  char buf[kNumberChars];
  return {buf, format_number_to(buf, v)};
}

void Table::append_text(std::string& out) const {
  // Every cell's text back to back, and where each one ends.
  std::string cells;
  std::vector<std::size_t> ends;
  ends.reserve(rows_.size() * columns_.size());
  std::vector<std::size_t> width(columns_.size());
  for (std::size_t c = 0; c < columns_.size(); ++c) width[c] = columns_[c].size();
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      const std::size_t begin = cells.size();
      append_cell(cells, r[c]);
      ends.push_back(cells.size());
      width[c] = std::max(width[c], cells.size() - begin);
    }
  }

  out += "# ";
  out += title_;
  out += '\n';
  auto emit = [&](std::size_t c, std::string_view text) {
    if (c != 0) out += "  ";
    out += text;
    out.append(width[c] - text.size(), ' ');
  };
  for (std::size_t c = 0; c < columns_.size(); ++c) emit(c, columns_[c]);
  out += '\n';
  std::size_t total = 0;
  for (auto w : width) total += w + 2;
  out.append(total > 2 ? total - 2 : total, '-');
  out += '\n';
  std::size_t begin = 0;
  for (std::size_t k = 0; k < ends.size(); ++k) {
    const std::size_t c = k % columns_.size();
    emit(c, std::string_view(cells).substr(begin, ends[k] - begin));
    begin = ends[k];
    if (c + 1 == columns_.size()) out += '\n';
  }
}

void Table::append_csv(std::string& out) const {
  out += "# ";
  out += title_;
  out += '\n';
  for (std::size_t c = 0; c < columns_.size(); ++c) {
    if (c != 0) out += ',';
    append_csv_field(out, columns_[c]);
  }
  out += '\n';
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      if (c != 0) out += ',';
      if (const auto* s = std::get_if<std::string>(&r[c])) {
        append_csv_field(out, *s);
      } else {
        append_cell(out, r[c]);
      }
    }
    out += '\n';
  }
}

void Table::print(std::ostream& os) const {
  std::string out;
  append_text(out);
  os << out;
}

void Table::print_csv(std::ostream& os) const {
  std::string out;
  append_csv(out);
  os << out;
}

}  // namespace pimsim
