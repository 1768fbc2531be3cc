#include "hetscale/run/result.hpp"

#include <cmath>
#include <ostream>
#include <sstream>

#include "hetscale/obs/format.hpp"
#include "hetscale/support/csv.hpp"
#include "hetscale/support/error.hpp"
#include "hetscale/support/table.hpp"

namespace hetscale::run {

namespace {

/// Append `piece` to `os` as a quoted, escaped JSON string.
void write_json_string(std::ostream& os, const std::string& piece) {
  os << '"' << obs::json_escape(piece) << '"';
}

/// A cell as a text table shows it.
std::string display_text(const Value& value) {
  switch (value.kind()) {
    case Value::Kind::kNull:
      return "-";
    case Value::Kind::kBool:
      return value.text() == "true" ? "yes" : "no";
    default:
      return value.text();
  }
}

}  // namespace

Value::Value(bool value)
    : kind_(Kind::kBool), text_(value ? "true" : "false") {}

Value::Value(int value) : Value(static_cast<std::int64_t>(value)) {}

Value::Value(std::int64_t value)
    : kind_(Kind::kInt), text_(std::to_string(value)) {}

Value::Value(std::string value)
    : kind_(Kind::kString), text_(std::move(value)) {}

Value::Value(const char* value) : kind_(Kind::kString), text_(value) {}

Value Value::fixed(double value, int decimals) {
  Value v;
  if (std::isfinite(value)) {
    v.kind_ = Kind::kDouble;
    v.text_ = Table::fixed(value, decimals);
  }
  return v;  // non-finite stays null
}

Value Value::real(double value, int digits) {
  Value v;
  if (std::isfinite(value)) {
    v.kind_ = Kind::kDouble;
    v.text_ = Table::num(value, digits);
  }
  return v;
}

void Value::write_json(std::ostream& os) const {
  switch (kind_) {
    case Kind::kNull:
      os << "null";
      break;
    case Kind::kBool:
    case Kind::kInt:
    case Kind::kDouble:
      os << text_;  // already a valid JSON literal
      break;
    case Kind::kString:
      write_json_string(os, text_);
      break;
  }
}

void RunResult::add_row(std::vector<Value> row) {
  HETSCALE_REQUIRE(row.size() == columns.size(),
                   "result row width must match the column count");
  rows.push_back(std::move(row));
}

void RunResult::add_scalar(std::string name, Value value) {
  scalars.emplace_back(std::move(name), std::move(value));
}

std::string RunResult::table(const std::vector<std::string>& headings,
                             const std::string& title) const {
  HETSCALE_REQUIRE(headings.size() == columns.size(),
                   "table headings must match the column count");
  Table out(title);
  out.set_header(headings);
  for (const auto& row : rows) {
    std::vector<std::string> cells;
    for (const auto& value : row) cells.push_back(display_text(value));
    out.add_row(std::move(cells));
  }
  return out.str();
}

std::string RunResult::to_csv(const std::vector<std::string>& headings) const {
  HETSCALE_REQUIRE(headings.size() == columns.size(),
                   "CSV headings must match the column count");
  CsvWriter csv(headings);
  for (const auto& row : rows) {
    std::vector<std::string> cells;
    cells.reserve(row.size());
    for (const auto& value : row) cells.push_back(value.text());
    csv.add_row(std::move(cells));
  }
  return csv.str();
}

std::string RunResult::to_json() const {
  std::ostringstream os;
  os << "{\n  \"schema\": \"hetscale.run.result/v1\",\n  \"scenario\": ";
  write_json_string(os, scenario);
  os << ",\n  \"title\": ";
  write_json_string(os, title);
  os << ",\n  \"columns\": [";
  for (std::size_t c = 0; c < columns.size(); ++c) {
    if (c > 0) os << ", ";
    write_json_string(os, columns[c]);
  }
  os << "],\n  \"rows\": [";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    os << (r == 0 ? "\n" : ",\n") << "    [";
    for (std::size_t c = 0; c < rows[r].size(); ++c) {
      if (c > 0) os << ", ";
      rows[r][c].write_json(os);
    }
    os << ']';
  }
  os << (rows.empty() ? "]" : "\n  ]") << ",\n  \"scalars\": {";
  for (std::size_t s = 0; s < scalars.size(); ++s) {
    os << (s == 0 ? "\n" : ",\n") << "    ";
    write_json_string(os, scalars[s].first);
    os << ": ";
    scalars[s].second.write_json(os);
  }
  os << (scalars.empty() ? "}" : "\n  }") << "\n}\n";
  return os.str();
}

}  // namespace hetscale::run
