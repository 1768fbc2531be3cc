// Structured experiment records.
//
// A scenario produces one RunResult: a typed table (columns x rows) plus
// named scalar findings, with three renderings —
//   * text: the harness output, prepared by the scenario: a header block
//     and commentary around the record's own rows, which table() (an
//     aligned table) or to_csv(headings) (a CSV block) renders under
//     display headings. Only a table whose shape differs from the record
//     (e.g. a psi-step list with a cumulative row) is built by hand;
//   * csv:  the tabular data alone, RFC-4180 escaped, for plotting;
//   * json: the full record under the documented schema
//     "hetscale.run.result/v1" (docs/architecture.md).
//
// All renderings are pure functions of the record, so a batch that merges
// deterministically emits byte-identical documents at any worker count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace hetscale::run {

/// One typed cell: null, bool, integer, real, or string. Reals carry their
/// rendering (fixed decimals or trimmed) so text, CSV, and JSON agree.
class Value {
 public:
  enum class Kind { kNull, kBool, kInt, kDouble, kString };

  Value() = default;  ///< null
  Value(bool value);
  Value(int value);
  Value(std::int64_t value);
  Value(std::string value);
  Value(const char* value);

  /// A real rendered in fixed notation with exactly `decimals` places —
  /// matches Table::fixed so table cells and JSON numbers agree.
  static Value fixed(double value, int decimals);

  /// A real rendered with trailing zeros trimmed (Table::num).
  static Value real(double value, int digits = 4);

  Kind kind() const { return kind_; }

  /// The CSV/text cell rendering (empty for null).
  const std::string& text() const { return text_; }

  /// Emit as a JSON value (strings escaped; non-finite reals become null).
  void write_json(std::ostream& os) const;

 private:
  Kind kind_ = Kind::kNull;
  std::string text_;
};

struct RunResult {
  std::string scenario;  ///< registry name
  std::string title;     ///< artifact title, e.g. "Table 3  Required rank..."

  std::vector<std::string> columns;
  std::vector<std::vector<Value>> rows;  ///< each row matches columns

  /// Named scalar findings (e.g. cumulative psi), in insertion order.
  std::vector<std::pair<std::string, Value>> scalars;

  /// The harness rendering, prepared by the scenario (see above).
  std::string text;

  void add_row(std::vector<Value> row);
  void add_scalar(std::string name, Value value);

  /// The rows as an aligned text table under display `headings` (one per
  /// column), with `title` as its first line when non-empty. A null cell
  /// prints "-", a boolean "yes" or "no", any other cell its text().
  std::string table(const std::vector<std::string>& headings,
                    const std::string& title = {}) const;

  /// Tabular data only: `headings` (one per column) as the header line,
  /// then one line of cell text() per row.
  std::string to_csv(const std::vector<std::string>& headings) const;
  std::string to_csv() const { return to_csv(columns); }

  /// The full record under schema "hetscale.run.result/v1".
  std::string to_json() const;
};

}  // namespace hetscale::run
