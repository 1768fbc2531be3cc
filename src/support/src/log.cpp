#include "hetscale/support/log.hpp"

#include <iostream>
#include <mutex>

namespace hetscale::detail {

namespace {
// Serializes writes: the experiment Runner warns from worker threads, and
// interleaved operator<< chains would shear lines mid-record.
std::mutex g_write_mutex;
}  // namespace

void log_warning(const std::string& message) {
  std::lock_guard<std::mutex> lock(g_write_mutex);
  std::clog << "[hetscale WARN] " << message << '\n';
}

}  // namespace hetscale::detail
