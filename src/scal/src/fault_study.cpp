#include "hetscale/scal/fault_study.hpp"

#include <memory>
#include <utility>

#include "hetscale/fault/analysis.hpp"
#include "hetscale/fault/degraded_network.hpp"
#include "hetscale/scal/metrics.hpp"

namespace hetscale::scal {
namespace {

std::vector<double> processor_rates(const machine::Cluster& cluster) {
  std::vector<double> rates;
  for (const auto& p : cluster.processors()) rates.push_back(p.rate_flops);
  return rates;
}

}  // namespace

FaultedCombination::FaultedCombination(ClusterCombination& inner,
                                       const fault::FaultPlan& plan)
    : inner_(&inner), plan_(&plan), name_(inner.name() + "+faults") {}

double FaultedCombination::marked_speed() const {
  return inner_->marked_speed();
}

double FaultedCombination::work(std::int64_t n) const {
  return inner_->work(n);
}

DegradedSpeed FaultedCombination::degraded(const Measurement& m) const {
  DegradedSpeed view;
  view.effective_marked_speed = fault::mean_effective_marked_speed(
      *plan_, inner_->rank_speeds(), m.seconds);
  view.degraded_es =
      speed_efficiency(m.work_flops, m.seconds, view.effective_marked_speed);
  return view;
}

FaultyMeasurement FaultedCombination::measure_faulty(std::int64_t n) const {
  const auto& config = inner_->config();
  auto network = std::make_unique<fault::DegradedNetwork>(
      make_network(config.network, config.net_params), *plan_);
  vmpi::Machine machine(config.cluster, std::move(network), config.tuning);
  fault::Injector injector(*plan_, processor_rates(config.cluster));
  machine.attach_fault_hooks(&injector);

  FaultyMeasurement fm;
  fm.measurement = inner_->run_on(machine, n);
  const DegradedSpeed view = degraded(fm.measurement);
  fm.effective_marked_speed = view.effective_marked_speed;
  fm.degraded_es = view.degraded_es;
  fm.fault_totals = injector.totals();
  fm.critical_path_fault_s = injector.critical_path_fault_s();
  return fm;
}

Measurement FaultedCombination::simulate(std::int64_t n) const {
  return measure_faulty(n).measurement;
}

FaultDecomposition decompose_faults(ClusterCombination& combination,
                                    std::int64_t n,
                                    const fault::FaultPlan& plan) {
  FaultedCombination faulted(combination, plan);
  FaultDecomposition d;
  d.healthy = combination.measure(n);
  d.faulty = faulted.measure_faulty(n);
  d.fault_overhead_s = d.faulty.measurement.seconds - d.healthy.seconds;
  d.attributed_s = d.faulty.critical_path_fault_s;
  d.residual_s = d.fault_overhead_s - d.attributed_s;
  d.efficiency_retention =
      d.healthy.speed_efficiency > 0.0
          ? d.faulty.measurement.speed_efficiency / d.healthy.speed_efficiency
          : 0.0;
  return d;
}

}  // namespace hetscale::scal
