// Report — the exportable product of a profiling session.
//
// Three formats over the same deterministic fold:
//   to_json()        `hetscale.obs.report/v1` (schema documented in
//                    docs/architecture.md)
//   to_prometheus()  text exposition format, deterministic metrics only
//   to_table()       the per-run time-budget table for humans
//
// The JSON and Prometheus outputs are byte-stable across --jobs because the
// fold consumes Profiler::sorted_runs(); wall-clock data appears only in
// JSON and only when ReportOptions::include_wall is set.
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
  /// Include host wall-clock stats (volatile across --jobs) in the JSON.
  bool include_wall = false;
};

class Report {
 public:
  Report(const Profiler& profiler, ReportOptions options);

  const std::string& subject() const { return subject_; }
  std::size_t runs() const { return runs_; }
  double elapsed_s() const { return elapsed_s_; }
  const TimeBudget& budget() const { return budget_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  const WallStats& wall() const { return wall_; }

  void to_json(std::ostream& os) const;
  void to_prometheus(std::ostream& os) const;
  Table to_table() const;

 private:
  std::string subject_;
  std::size_t runs_ = 0;
  double elapsed_s_ = 0.0;
  TimeBudget budget_;
  MetricsRegistry metrics_;
  bool has_wall_ = false;
  WallStats wall_;
};

}  // namespace hetscale::obs
