// Profiled measurement — one combination run with full instrumentation.
//
// profile_run() measures a single problem size the same way
// ClusterCombination::measure() does, but under a private obs::Profiler,
// and returns the run's instrumentation alongside the Measurement: the
// time budget (measured t0/To), the complete obs::RunProfile, the
// per-rank utilization table, and the Chrome trace. This is what the CLI's
// `profile` command and the profile scenarios consume; the cache is
// bypassed (the simulator is deterministic, so the Measurement matches
// what measure() would return).
#pragma once

#include <cstdint>
#include <string>

#include "hetscale/obs/profiler.hpp"
#include "hetscale/scal/combination.hpp"

namespace hetscale::scal {

struct ProfiledRun {
  Measurement measurement;
  obs::RunProfile profile;  ///< budget, traffic, des/net/fault totals
  std::string utilization;  ///< per-rank compute/comm/idle table
  std::string chrome_trace; ///< Chrome trace-event JSON

  const obs::TimeBudget& budget() const { return profile.budget; }
};

/// Measure `combination` at size `n` on a fresh machine with profiling on.
ProfiledRun profile_run(const ClusterCombination& combination,
                        std::int64_t n);

}  // namespace hetscale::scal
