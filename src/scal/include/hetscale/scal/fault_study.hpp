// Degraded-mode scalability analysis — the metric under a FaultPlan.
//
// A FaultedCombination wraps a ClusterCombination and replays its algorithm
// on a machine whose network is wrapped in a fault::DegradedNetwork and
// whose runtime consults a fault::Injector — same algorithm, same cluster,
// same marked speed, but slowdowns, link faults, message loss, and
// crash/restart are live. Because it *is* a Combination, the whole healthy
// tool chain applies unchanged: measure() and measure_many memoize and batch
// its runs like any other, required_problem_size finds the size that
// restores E_s on the faulty machine, scalability_series builds Tables 3-5
// under degradation, and ψ(healthy, faulty) quantifies what the faults cost
// in the metric's own currency.
//
// The fault overhead decomposition extends the paper's T = T_c + T_o on the
// critical path: the injector attributes its share of the added time to
// slowdown stretch, checkpoint cost, crash rework, and retry waits; the
// remainder (blocking on degraded peers, inflated wire time, contention) is
// reported as the residual.
#pragma once

#include <cstdint>
#include <string>

#include "hetscale/fault/injector.hpp"
#include "hetscale/fault/plan.hpp"
#include "hetscale/scal/combination.hpp"

namespace hetscale::scal {

/// The degraded view of one run under a fault plan.
struct DegradedSpeed {
  /// Time-averaged effective marked speed over the run: the sum of
  /// C_i · slowdown_factor_i(t), averaged over [0, T).
  double effective_marked_speed = 0.0;

  /// E_s against the effective marked speed — "how well did we use what
  /// the degraded machine actually offered".
  double degraded_es = 0.0;
};

/// One measured point of a combination under a fault plan.
struct FaultyMeasurement {
  /// The standard measurement, with speed_efficiency against the *healthy*
  /// marked speed — "what did the faults cost against the machine we paid
  /// for".
  Measurement measurement;

  /// See DegradedSpeed.
  double effective_marked_speed = 0.0;
  double degraded_es = 0.0;

  /// Injector accounting summed over ranks.
  fault::RankFaultStats fault_totals;

  /// Max over ranks of the injector's attributed time — the fault share of
  /// the critical path.
  double critical_path_fault_s = 0.0;
};

/// A combination running under a fault plan. The wrapped combination and
/// the plan must outlive this object.
class FaultedCombination final : public Combination {
 public:
  FaultedCombination(ClusterCombination& inner, const fault::FaultPlan& plan);

  const std::string& name() const override { return name_; }
  /// The healthy marked speed: C is a constant of the study, faults do not
  /// re-mark the machine (degraded() gives the degraded view).
  double marked_speed() const override;
  double work(std::int64_t n) const override;
  std::int64_t min_n() const override { return inner_->min_n(); }

  /// One run at size n with the full degraded-mode detail; uncached (each
  /// run has its own machine and injector, the plan is shared read-only).
  FaultyMeasurement measure_faulty(std::int64_t n) const;

  /// C_eff and the degraded E_s of a run of this combination that measured
  /// `m`. Both follow from the plan, the rank speeds and m's seconds, so
  /// the memoized measure(n) yields them without another simulation.
  DegradedSpeed degraded(const Measurement& m) const;

  const fault::FaultPlan& plan() const { return *plan_; }
  ClusterCombination& inner() { return *inner_; }

 private:
  Measurement simulate(std::int64_t n) const override;

  ClusterCombination* inner_;
  const fault::FaultPlan* plan_;
  std::string name_;
};

/// Healthy-vs-faulty comparison at one problem size, with the added time
/// decomposed by cause.
struct FaultDecomposition {
  Measurement healthy;
  FaultyMeasurement faulty;

  /// T_faulty - T_healthy: what the plan cost in wall time.
  double fault_overhead_s = 0.0;

  /// The injector-attributed share of the critical path (slowdown stretch +
  /// checkpoints + rework + retry waits on the worst rank).
  double attributed_s = 0.0;

  /// fault_overhead_s - attributed_s: blocking on degraded peers, inflated
  /// wire occupancy, and contention — degradation the network model charges
  /// that no single rank's ledger shows.
  double residual_s = 0.0;

  /// ψ(C, C) with W' the faulty run's work at equal E_s footing — here
  /// simply the efficiency ratio E_s(faulty) / E_s(healthy), the scalar
  /// "fraction of healthy efficiency retained under the plan".
  double efficiency_retention = 0.0;
};

/// Measure `combination` at `n` healthy and under `plan`, and decompose.
FaultDecomposition decompose_faults(ClusterCombination& combination,
                                    std::int64_t n,
                                    const fault::FaultPlan& plan);

}  // namespace hetscale::scal
