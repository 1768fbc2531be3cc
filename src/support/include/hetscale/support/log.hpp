// Warnings on std::clog.
//
// The simulator is a library first: it reports a condition that is not an
// error but that a caller may want to see (an iso-solve whose trend line
// never reaches its target) as one warning line, and prints nothing else.
#pragma once

#include <sstream>
#include <string>

namespace hetscale::detail {
/// Write "[hetscale WARN] <message>" and a newline to std::clog as one
/// line: writers on different threads never shear each other's lines.
void log_warning(const std::string& message);
}  // namespace hetscale::detail

/// HETSCALE_WARN("x = " << x): format with operator<< and log_warning it.
#define HETSCALE_WARN(expr)                                  \
  do {                                                       \
    std::ostringstream hetscale_warn_os;                     \
    hetscale_warn_os << expr;                                \
    ::hetscale::detail::log_warning(hetscale_warn_os.str()); \
  } while (false)
