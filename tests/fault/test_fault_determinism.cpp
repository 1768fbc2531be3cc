// The PR's acceptance gate: a GE or MM run under an *active* FaultPlan is
// bit-identical across repetitions and across Runner jobs counts, and the
// fault scenarios are registered and runnable.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/run/scenario.hpp"
#include "hetscale/scal/combination.hpp"
#include "hetscale/scal/fault_study.hpp"
#include "hetscale/scenarios/fault.hpp"

namespace hetscale::scal {
namespace {

ClusterCombination::Config ge_config() {
  ClusterCombination::Config config;
  config.cluster = machine::sunwulf::ge_ensemble(2);
  return config;
}

// An aggressive plan whose windows are short enough that every fault class
// is live inside even a small run: stragglers and link degradation cycling
// every 10 ms, message loss, and seeded crashes with cheap checkpoints.
fault::FaultPlan active_plan(std::uint64_t seed, int ranks) {
  fault::PlanSpec spec;
  spec.slowdown_probability = 1.0;
  spec.slowdown_factor = 0.5;
  spec.slowdown_duty = 0.5;
  spec.slowdown_period_s = 0.01;
  spec.link_duty = 0.5;
  spec.link_period_s = 0.01;
  spec.link_bandwidth_factor = 0.5;
  spec.link_extra_latency_s = 1e-4;
  spec.crash_rate_per_s = 2.0;
  spec.restart_delay_s = 0.005;
  spec.loss.drop_probability = 0.1;
  spec.checkpoint.interval_s = 0.02;
  spec.checkpoint.bytes = 1e4;
  spec.horizon_s = 2.0;
  return fault::FaultPlan::generate(seed, spec, ranks);
}

void expect_identical(const Measurement& a, const Measurement& b) {
  EXPECT_EQ(a.n, b.n);
  EXPECT_EQ(a.work_flops, b.work_flops);
  EXPECT_EQ(a.seconds, b.seconds);  // exact: bit-reproducibility is the gate
  EXPECT_EQ(a.speed_flops, b.speed_flops);
  EXPECT_EQ(a.speed_efficiency, b.speed_efficiency);
  EXPECT_EQ(a.overhead_s, b.overhead_s);
}

TEST(FaultDeterminism, RepeatedGeRunsAreBitIdentical) {
  ClusterCombination first_inner("GE-2", ge_config(), ge_algo());
  const fault::FaultPlan plan = active_plan(7, first_inner.processor_count());
  FaultedCombination first(first_inner, plan);
  ClusterCombination second_inner("GE-2", ge_config(), ge_algo());
  FaultedCombination second(second_inner, plan);

  const FaultyMeasurement a = first.measure_faulty(96);
  const FaultyMeasurement b = second.measure_faulty(96);
  expect_identical(a.measurement, b.measurement);
  EXPECT_EQ(a.effective_marked_speed, b.effective_marked_speed);
  EXPECT_EQ(a.degraded_es, b.degraded_es);
  EXPECT_EQ(a.fault_totals.total_s(), b.fault_totals.total_s());
  EXPECT_EQ(a.fault_totals.retries, b.fault_totals.retries);
  EXPECT_EQ(a.critical_path_fault_s, b.critical_path_fault_s);

  // The plan is genuinely active: it injected time and slowed the run.
  EXPECT_GT(a.fault_totals.total_s(), 0.0);
  EXPECT_GT(a.measurement.seconds, first_inner.measure(96).seconds);
}

TEST(FaultDeterminism, JobsCountDoesNotChangeFaultyMeasurements) {
  const std::vector<std::int64_t> sizes{32, 48, 64, 96};

  ClusterCombination sequential_inner("GE-2", ge_config(), ge_algo());
  const fault::FaultPlan plan =
      active_plan(7, sequential_inner.processor_count());
  FaultedCombination sequential(sequential_inner, plan);
  run::Runner one(1);
  const auto a = sequential.measure_many(sizes, one);

  ClusterCombination parallel_inner("GE-2", ge_config(), ge_algo());
  FaultedCombination parallel(parallel_inner, plan);
  run::Runner eight(8);
  const auto b = parallel.measure_many(sizes, eight);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) expect_identical(a[i], b[i]);
}

TEST(FaultDeterminism, MmDecompositionIsReproducible) {
  ClusterCombination::Config config;
  config.cluster = machine::sunwulf::mm_ensemble(2);
  ClusterCombination first_inner("MM-2", config, mm_algo());
  const fault::FaultPlan plan = active_plan(3, first_inner.processor_count());
  const FaultDecomposition a = decompose_faults(first_inner, 64, plan);

  ClusterCombination second_inner("MM-2", config, mm_algo());
  const FaultDecomposition b = decompose_faults(second_inner, 64, plan);

  expect_identical(a.healthy, b.healthy);
  expect_identical(a.faulty.measurement, b.faulty.measurement);
  EXPECT_EQ(a.fault_overhead_s, b.fault_overhead_s);
  EXPECT_EQ(a.attributed_s, b.attributed_s);
  EXPECT_EQ(a.residual_s, b.residual_s);
  EXPECT_EQ(a.efficiency_retention, b.efficiency_retention);

  // The decomposition's books balance and the plan cost something.
  EXPECT_DOUBLE_EQ(a.attributed_s + a.residual_s, a.fault_overhead_s);
  EXPECT_GT(a.fault_overhead_s, 0.0);
  EXPECT_GT(a.efficiency_retention, 0.0);
  EXPECT_LT(a.efficiency_retention, 1.0);
}

TEST(FaultDeterminism, FaultyViewRelatesSanelyToTheHealthyOne) {
  ClusterCombination inner("GE-2", ge_config(), ge_algo());
  const fault::FaultPlan plan = active_plan(7, inner.processor_count());
  FaultedCombination faulted(inner, plan);
  EXPECT_EQ(faulted.marked_speed(), inner.marked_speed());  // C is constant
  EXPECT_EQ(faulted.work(96), inner.work(96));
  const FaultyMeasurement faulty = faulted.measure_faulty(96);
  // The effective marked speed is what the degraded machine offered — less
  // than C, so the degraded E_s reads higher than the classic one.
  EXPECT_LT(faulty.effective_marked_speed, inner.marked_speed());
  EXPECT_GT(faulty.degraded_es, faulty.measurement.speed_efficiency);
}

// The fault scenario reads C_eff and the degraded E_s off the memoized
// measure(n); they must be the ones measure_faulty(n) computes beside its
// own run, bit for bit.
TEST(FaultDeterminism, DegradedViewOfTheMemoizedRunMatchesMeasureFaulty) {
  ClusterCombination inner("GE-2", ge_config(), ge_algo());
  const fault::FaultPlan plan = active_plan(7, inner.processor_count());
  FaultedCombination faulted(inner, plan);
  const Measurement& memoized = faulted.measure(96);
  const DegradedSpeed view = faulted.degraded(memoized);
  const FaultyMeasurement full = faulted.measure_faulty(96);
  expect_identical(memoized, full.measurement);
  EXPECT_EQ(view.effective_marked_speed, full.effective_marked_speed);
  EXPECT_EQ(view.degraded_es, full.degraded_es);
}

TEST(FaultDeterminism, FaultScenariosAreRegistered) {
  scenarios::register_fault_scenarios();
  scenarios::register_fault_scenarios();  // idempotent
  for (const char* name :
       {"fault_ge_degraded_scalability", "fault_mm_crash_restart",
        "fault_ge_loss_retry"}) {
    EXPECT_NE(run::find_scenario(name), nullptr) << name;
  }
}

}  // namespace
}  // namespace hetscale::scal
