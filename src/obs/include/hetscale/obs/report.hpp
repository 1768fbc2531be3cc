// Report — the exportable product of a profiling session.
//
// Three formats over the same deterministic fold:
//   to_json()        `hetscale.obs.report/v1` (schema documented in
//                    docs/architecture.md)
//   to_prometheus()  text exposition format, deterministic metrics only
//   to_table()       the per-run time-budget table for humans
//
// All three are byte-stable across --jobs because the fold consumes
// Profiler::sorted_runs().
#pragma once

#include <ostream>
#include <string>

#include "hetscale/obs/budget.hpp"
#include "hetscale/obs/metrics.hpp"
#include "hetscale/obs/profiler.hpp"
#include "hetscale/support/table.hpp"

namespace hetscale::obs {

struct ReportOptions {
  /// Free-form name of what was profiled (scenario or algorithm).
  std::string subject = "run";
};

class Report {
 public:
  Report(const Profiler& profiler, ReportOptions options);

  const std::string& subject() const { return subject_; }
  std::size_t runs() const { return runs_; }
  double elapsed_s() const { return elapsed_s_; }
  const TimeBudget& budget() const { return budget_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  void to_json(std::ostream& os) const;
  void to_prometheus(std::ostream& os) const;
  Table to_table() const;

 private:
  std::string subject_;
  std::size_t runs_ = 0;
  double elapsed_s_ = 0.0;
  TimeBudget budget_;
  MetricsRegistry metrics_;
};

}  // namespace hetscale::obs
