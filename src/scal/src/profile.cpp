#include "hetscale/scal/profile.hpp"

#include "hetscale/support/error.hpp"

namespace hetscale::scal {

ProfiledRun profile_run(const ClusterCombination& combination,
                        std::int64_t n) {
  const auto& config = combination.config();
  obs::Profiler profiler;
  ProfiledRun out;
  {
    obs::ProfilerScope scope(profiler);
    auto machine = make_machine(config.cluster, config.network,
                                config.net_params, config.tuning);
    out.measurement = combination.run_on(machine, n);
    const vmpi::TraceRecorder* tracer = machine.tracer();
    HETSCALE_CHECK(tracer != nullptr, "a profiled machine must trace");
    out.utilization = tracer->utilization_table(out.measurement.seconds);
    out.chrome_trace = tracer->chrome_trace_json();
  }
  const auto runs = profiler.sorted_runs();
  HETSCALE_CHECK(runs.size() == 1,
                 "profile_run expected exactly one machine run");
  out.profile = runs.front();
  return out;
}

}  // namespace hetscale::scal
