// Plain-text table rendering for the benchmark binaries: every paper
// table/figure is reproduced as an aligned ASCII table (plus optional CSV).
#pragma once

#include <string>
#include <vector>

namespace gf::util {

/// A simple column-aligned text table. Cells are strings; numeric helpers
/// format with fixed precision.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Starts a new row. Subsequent cell() calls fill it left to right.
  Table& row();

  Table& cell(std::string text);
  Table& cell(double value, int precision = 2);
  Table& cell(long long value);
  Table& cell(int value) { return cell(static_cast<long long>(value)); }
  Table& cell(std::size_t value) { return cell(static_cast<long long>(value)); }

  /// Renders with column alignment; header separated by a rule.
  std::string to_string() const;


 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (locale independent).
std::string fmt(double value, int precision = 2);

/// Renders a quick horizontal bar (used for the Figure 5 chart output).
std::string bar(double value, double max_value, int width = 40);

}  // namespace gf::util
