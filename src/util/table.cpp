#include "util/table.h"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace gf::util {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::cell(std::string text) {
  if (rows_.empty()) rows_.emplace_back();
  rows_.back().push_back(std::move(text));
  return *this;
}

Table& Table::cell(double value, int precision) {
  return cell(fmt(value, precision));
}

Table& Table::cell(long long value) { return cell(std::to_string(value)); }

std::string Table::to_string() const {
  std::vector<std::size_t> widths(header_.size(), 0);
  for (std::size_t i = 0; i < header_.size(); ++i) widths[i] = header_[i].size();
  for (const auto& r : rows_) {
    for (std::size_t i = 0; i < r.size() && i < widths.size(); ++i) {
      widths[i] = std::max(widths[i], r[i].size());
    }
  }
  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& r) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string& cell = i < r.size() ? r[i] : std::string{};
      out << (i == 0 ? "| " : " | ");
      out << cell << std::string(widths[i] - cell.size(), ' ');
    }
    out << " |\n";
  };
  emit_row(header_);
  for (std::size_t i = 0; i < widths.size(); ++i) {
    out << (i == 0 ? "|-" : "-|-") << std::string(widths[i], '-');
  }
  out << "-|\n";
  for (const auto& r : rows_) emit_row(r);
  return out.str();
}

std::string fmt(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, value);
  return buf;
}

std::string bar(double value, double max_value, int width) {
  if (max_value <= 0.0) max_value = 1.0;
  int n = static_cast<int>(value / max_value * width + 0.5);
  n = std::clamp(n, 0, width);
  return std::string(static_cast<std::size_t>(n), '#') +
         std::string(static_cast<std::size_t>(width - n), ' ');
}

}  // namespace gf::util
