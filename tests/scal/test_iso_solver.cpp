#include "hetscale/scal/iso_solver.hpp"

#include <gtest/gtest.h>

#include "analytic_combination.hpp"
#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::scal {
namespace {

using testing::AnalyticCombination;

class SolverTargets : public ::testing::TestWithParam<double> {};
INSTANTIATE_TEST_SUITE_P(Targets, SolverTargets,
                         ::testing::Values(0.1, 0.25, 0.3, 0.5, 0.75, 0.9));

TEST_P(SolverTargets, DirectSearchFindsExactThreshold) {
  run::Runner runner(1);
  const double target = GetParam();
  AnalyticCombination combo("synthetic", 1e8, /*knee=*/137.0);
  const auto result = required_problem_size(combo, target, runner);
  ASSERT_TRUE(result.found);
  EXPECT_EQ(result.n, combo.required_size(target));
  EXPECT_GE(result.achieved_es, target);
}

TEST(IsoSolver, DirectSearchUsesLogarithmicallyManyRuns) {
  run::Runner runner(1);
  AnalyticCombination combo("synthetic", 1e8, 1000.0);
  const auto result = required_problem_size(combo, 0.5, runner);
  ASSERT_TRUE(result.found);
  EXPECT_LT(combo.simulated().size(), 40u);
}

TEST(IsoSolver, UnreachableTargetReportsNotFound) {
  run::Runner runner(1);
  AnalyticCombination combo("synthetic", 1e8, 1e9);  // needs n ~ 1e9
  IsoSolveOptions options;
  options.n_max = 1 << 16;
  const auto result = required_problem_size(combo, 0.9, runner, options);
  EXPECT_FALSE(result.found);
  EXPECT_EQ(result.n, -1);
}

TEST(IsoSolver, TrendLineLandsNearTheDirectAnswer) {
  run::Runner runner(1);
  AnalyticCombination combo("synthetic", 1e8, 200.0);
  IsoSolveOptions trend;
  trend.method = IsoSolveOptions::Method::kTrendLine;
  trend.trend_n_lo = 32;
  trend.trend_n_hi = 1024;
  const auto via_trend = required_problem_size(combo, 0.5, runner, trend);
  const auto direct = required_problem_size(combo, 0.5, runner);
  ASSERT_TRUE(via_trend.found);
  ASSERT_TRUE(direct.found);
  // Paper-style: the trend read-off is close, then verified by measuring.
  EXPECT_NEAR(static_cast<double>(via_trend.n),
              static_cast<double>(direct.n), 0.2 * direct.n);
  EXPECT_NEAR(via_trend.achieved_es, 0.5, 0.06);
}

TEST(IsoSolver, TrendLineOnRealGe) {
  run::Runner runner(1);
  ClusterCombination::Config config;
  config.cluster = machine::sunwulf::ge_ensemble(2);
  config.with_data = false;
  ClusterCombination combo("GE-2", std::move(config), ge_algo());

  IsoSolveOptions trend;
  trend.method = IsoSolveOptions::Method::kTrendLine;
  trend.trend_n_lo = 64;
  trend.trend_n_hi = 1024;
  const auto via_trend = required_problem_size(combo, 0.3, runner, trend);
  const auto direct = required_problem_size(combo, 0.3, runner);
  ASSERT_TRUE(via_trend.found);
  ASSERT_TRUE(direct.found);
  EXPECT_NEAR(static_cast<double>(via_trend.n),
              static_cast<double>(direct.n), 0.25 * direct.n);
}

TEST(IsoSolver, WorksOnSort) {
  // A real-data combination with sub-cubic work: the solver must handle
  // its (noisier, slowly rising) efficiency curve and, with default
  // options, start at the p^2 size floor rather than below it.
  run::Runner runner(1);
  ClusterCombination::Config config;
  config.cluster = machine::sunwulf::mm_ensemble(4);
  ClusterCombination combo("sort-4", std::move(config), sort_algo());
  ASSERT_EQ(combo.processor_count(), 4);
  EXPECT_EQ(combo.min_n(), 16);
  const auto result = required_problem_size(combo, 0.2, runner);
  ASSERT_TRUE(result.found);
  EXPECT_GE(result.achieved_es, 0.2);
  // Sort's curve is data-dependent (bucket sizes), so only require the
  // solved point to be near the rising edge, not exactly minimal.
  EXPECT_LT(combo.measure(std::max<std::int64_t>(16, result.n / 2))
                .speed_efficiency,
            0.2);
}

TEST(IsoSolver, InvalidArgumentsRejected) {
  run::Runner runner(1);
  AnalyticCombination combo("synthetic", 1e8, 100.0);
  EXPECT_THROW(required_problem_size(combo, 0.0, runner),
               PreconditionError);
  EXPECT_THROW(required_problem_size(combo, 1.0, runner),
               PreconditionError);
  IsoSolveOptions bad;
  bad.n_min = 10;
  bad.n_max = 5;
  EXPECT_THROW(required_problem_size(combo, 0.5, runner, bad),
               PreconditionError);
}

TEST(IsoSolver, TrendNeedsEnoughSamples) {
  run::Runner runner(1);
  AnalyticCombination combo("synthetic", 1e8, 100.0);
  IsoSolveOptions bad;
  bad.method = IsoSolveOptions::Method::kTrendLine;
  bad.trend_samples = 3;
  bad.trend_degree = 3;
  EXPECT_THROW(required_problem_size(combo, 0.5, runner, bad),
               PreconditionError);
}

}  // namespace
}  // namespace hetscale::scal
