#include "hetscale/scal/combination.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "analytic_combination.hpp"
#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/marked/suite.hpp"
#include "hetscale/numeric/linsolve.hpp"
#include "hetscale/numeric/polynomial.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/scal/iso_solver.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::scal {
namespace {

ClusterCombination::Config ge2_config() {
  ClusterCombination::Config config;
  config.cluster = machine::sunwulf::ge_ensemble(2);
  config.with_data = false;
  return config;
}

TEST(Combination, MarkedSpeedMatchesDefinitionTwo) {
  ClusterCombination combo("GE-2", ge2_config(), ge_algo());
  EXPECT_NEAR(combo.marked_speed(),
              marked::system_marked_speed(combo.cluster()), 1.0);
}

TEST(Combination, WorkPolynomials) {
  ClusterCombination ge("GE", ge2_config(), ge_algo());
  ClusterCombination::Config mm_config;
  mm_config.cluster = machine::sunwulf::mm_ensemble(2);
  ClusterCombination mm("MM", std::move(mm_config), mm_algo());
  EXPECT_DOUBLE_EQ(ge.work(100), numeric::ge_workload(100.0));
  EXPECT_DOUBLE_EQ(mm.work(100), numeric::mm_workload(100.0));
}

TEST(Combination, MeasurementFieldsAreConsistent) {
  ClusterCombination combo("GE-2", ge2_config(), ge_algo());
  const auto& m = combo.measure(64);
  EXPECT_EQ(m.n, 64);
  EXPECT_DOUBLE_EQ(m.work_flops, combo.work(64));
  EXPECT_GT(m.seconds, 0.0);
  EXPECT_NEAR(m.speed_flops, m.work_flops / m.seconds, 1e-6);
  EXPECT_NEAR(m.speed_efficiency, m.speed_flops / combo.marked_speed(),
              1e-12);
  EXPECT_GE(m.overhead_s, 0.0);
}

TEST(Combination, MeasurementsAreCached) {
  ClusterCombination combo("GE-2", ge2_config(), ge_algo());
  const auto* first = &combo.measure(48);
  const auto* second = &combo.measure(48);
  EXPECT_EQ(first, second);  // same object: no re-simulation
}

// measure() and measure_many() share the one cache in the base class, so a
// combination that only says how to simulate one size is simulated once per
// distinct size — through repeats, batches with duplicates and cached
// sizes, and a direct-search solve — and batches answer in request order.
TEST(Combination, EachDistinctSizeIsSimulatedOnce) {
  for (int jobs : {1, 4}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    testing::AnalyticCombination combo("synthetic", 1e8, /*knee=*/137.0);
    run::Runner runner(jobs);
    const Measurement* first = &combo.measure(40);
    EXPECT_EQ(&combo.measure(40), first);

    const std::vector<std::int64_t> sizes{96, 40, 12, 96, 64, 12, 40};
    const auto batch = combo.measure_many(sizes, runner);
    ASSERT_EQ(batch.size(), sizes.size());
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      EXPECT_EQ(batch[i].n, sizes[i]);
      EXPECT_EQ(batch[i].speed_efficiency, combo.efficiency(sizes[i]));
    }
    EXPECT_EQ(combo.simulated(), (std::vector<std::int64_t>{12, 40, 64, 96}));
    (void)combo.measure_many(sizes, runner);
    EXPECT_EQ(combo.simulated().size(), 4u);

    const auto solved = required_problem_size(combo, 0.5, runner);
    ASSERT_TRUE(solved.found);
    EXPECT_EQ(solved.n, combo.required_size(0.5));
    const auto simulated = combo.simulated();
    EXPECT_EQ(std::adjacent_find(simulated.begin(), simulated.end()),
              simulated.end())
        << "a size was simulated twice";
  }
}

TEST(Combination, SpeedEfficiencyIncreasesWithProblemSize) {
  ClusterCombination combo("GE-2", ge2_config(), ge_algo());
  double prev = 0.0;
  for (std::int64_t n : {16, 32, 64, 128, 256}) {
    const double es = combo.measure(n).speed_efficiency;
    EXPECT_GT(es, prev) << "n=" << n;
    prev = es;
  }
  EXPECT_LT(prev, 1.0);
}

TEST(Combination, EfficiencyBoundedByOne) {
  ClusterCombination combo("GE-2", ge2_config(), ge_algo());
  for (std::int64_t n : {100, 500, 1000}) {
    EXPECT_LT(combo.measure(n).speed_efficiency, 1.0);
    EXPECT_GT(combo.measure(n).speed_efficiency, 0.0);
  }
}

TEST(Combination, CurveSamplingPreservesOrder) {
  run::Runner runner(1);
  ClusterCombination combo("GE-2", ge2_config(), ge_algo());
  const std::vector<std::int64_t> sizes{16, 64, 256};
  const auto curve = sample_efficiency_curve(combo, sizes, runner);
  EXPECT_EQ(curve.label, "GE-2");
  ASSERT_EQ(curve.samples.size(), 3u);
  EXPECT_EQ(curve.samples[0].n, 16);
  EXPECT_EQ(curve.samples[2].n, 256);
  EXPECT_EQ(curve.sizes(), (std::vector<double>{16, 64, 256}));
}

TEST(Combination, TrendLineFitsTheCurveWell) {
  run::Runner runner(1);
  ClusterCombination combo("GE-2", ge2_config(), ge_algo());
  const std::vector<std::int64_t> sizes{32, 64, 96, 128, 192, 256, 384, 512};
  const auto curve = sample_efficiency_curve(combo, sizes, runner);
  const auto trend = fit_trend(curve, 3);
  EXPECT_GT(numeric::r_squared(trend, curve.sizes(), curve.efficiencies()),
            0.98);
}

TEST(Combination, SwitchedNetworkIsAtLeastAsFast) {
  auto shared_config = ge2_config();
  auto switched_config = ge2_config();
  switched_config.network = NetworkKind::kSwitched;
  ClusterCombination on_bus("GE-bus", std::move(shared_config), ge_algo());
  ClusterCombination on_switch("GE-switch", std::move(switched_config),
                               ge_algo());
  EXPECT_LE(on_switch.measure(128).seconds, on_bus.measure(128).seconds);
}

TEST(Combination, InvalidMeasureSizeRejected) {
  ClusterCombination combo("GE-2", ge2_config(), ge_algo());
  EXPECT_THROW(combo.measure(0), PreconditionError);
}

}  // namespace
}  // namespace hetscale::scal
