// Small formatting helpers shared by the obs exporters.
//
// The obs layer sits below run/ in the build (run links against it), so
// run::RunResult's JSON rendering escapes its strings through json_escape
// too. These helpers keep every exporter's conventions aligned: strings are
// JSON-escaped, and non-finite reals never reach a JSON document (callers
// render them as null).
#pragma once

#include <string>

namespace hetscale::obs {

/// Escape `text` for inclusion inside a JSON string literal (quotes,
/// backslashes, control characters).
std::string json_escape(const std::string& text);

/// Render a finite double with enough digits to be stable across exports of
/// bitwise-equal values (15 significant digits). Callers must handle
/// non-finite values themselves; this throws on NaN/Inf so no exporter can
/// leak an invalid JSON token by accident.
std::string format_double(double value);

/// `value` if finite rendered via format_double, else the JSON token
/// "null" — the same convention as hetscale.run.result/v1.
std::string json_number_or_null(double value);

/// Escape a label value for the Prometheus text exposition format:
/// backslash -> \\, double quote -> \", newline -> \n (the three escapes
/// the format defines; everything else passes through verbatim).
std::string prom_escape(const std::string& value);

}  // namespace hetscale::obs
