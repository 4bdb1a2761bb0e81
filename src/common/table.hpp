// Tabular output for the figure/table regeneration harness.
//
// Every bench binary produces one or more Tables holding the same rows or
// series the paper plots; Table renders them either as an aligned text
// table (for terminals) or CSV (for re-plotting).
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace pimsim {

/// A table cell: text or numeric (numerics get consistent formatting).
using Cell = std::variant<std::string, double, std::int64_t>;

/// Column-oriented table with a title and header row.
class Table {
 public:
  Table(std::string title, std::vector<std::string> columns);

  /// Appends one row; must match the column count.
  void add_row(std::vector<Cell> cells);

  [[nodiscard]] const std::string& title() const { return title_; }
  [[nodiscard]] const std::vector<std::string>& columns() const { return columns_; }
  [[nodiscard]] std::size_t rows() const { return rows_.size(); }
  [[nodiscard]] const std::vector<Cell>& row(std::size_t i) const;

  /// Numeric value of cell (r, c); throws if the cell is text.
  [[nodiscard]] double number_at(std::size_t r, std::size_t c) const;

  /// Appends the aligned, human-readable table to `out`.
  void append_text(std::string& out) const;
  /// Appends RFC-4180-ish CSV (header + rows; title as a comment line).
  void append_csv(std::string& out) const;

  /// Writes append_text's bytes to `os` in one write.
  void print(std::ostream& os) const;
  /// Writes append_csv's bytes to `os` in one write.
  void print_csv(std::ostream& os) const;

 private:
  std::string title_;
  std::vector<std::string> columns_;
  std::vector<std::vector<Cell>> rows_;
};

/// Formats a double compactly: "0" for zero, "%.4g" for |v| < 1e-3 or
/// |v| >= 1e7, the integer when v is within 1e-9 (relative) of one, and
/// "%.4f" otherwise.
[[nodiscard]] std::string format_number(double v);

}  // namespace pimsim
