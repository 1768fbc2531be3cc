// Plain-text table formatting for benchmark harness output.
//
// The paper's evaluation section is a sequence of small tables; every bench
// binary prints its table through this formatter so the output is uniform and
// diffable against EXPERIMENTS.md.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace hetscale {

/// A simple column-aligned text table.
///
/// Usage:
///   Table t("Table 1  Marked speed of Sunwulf nodes (Mflops)");
///   t.set_header({"Node", "Marked Speed"});
///   t.add_row({"SunBlade", "27.5"});
///   std::cout << t;
class Table {
 public:
  Table() = default;
  explicit Table(std::string title) : title_(std::move(title)) {}

  void set_header(std::vector<std::string> header);
  void add_row(std::vector<std::string> row);

  /// Number of data rows (header excluded).
  std::size_t row_count() const { return rows_.size(); }

  /// Render with box-drawing-free ASCII alignment.
  std::string str() const;

  friend std::ostream& operator<<(std::ostream& os, const Table& table);

  /// Format a double with `digits` significant decimal places, trimming
  /// trailing zeros ("3.1400" -> "3.14", "2.0" -> "2").
  static std::string num(double value, int digits = 4);

  /// Format a double in fixed notation with exactly `decimals` places.
  static std::string fixed(double value, int decimals);

 private:
  std::string title_;
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace hetscale
