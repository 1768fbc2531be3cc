// End-to-end reproduction of the paper's measurement pipeline at reduced
// scale: Sunwulf ensembles, iso-solve for the target speed-efficiency,
// scalability series, GE-vs-MM comparison.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/scal/iso_solver.hpp"
#include "hetscale/scal/series.hpp"

namespace hetscale::scal {
namespace {

std::unique_ptr<ClusterCombination> ge_combo(int nodes) {
  ClusterCombination::Config config;
  config.cluster = machine::sunwulf::ge_ensemble(nodes);
  config.with_data = false;
  return std::make_unique<ClusterCombination>(
      "GE-" + std::to_string(nodes), std::move(config), ge_algo());
}

std::unique_ptr<ClusterCombination> mm_combo(int nodes) {
  ClusterCombination::Config config;
  config.cluster = machine::sunwulf::mm_ensemble(nodes);
  config.with_data = false;
  return std::make_unique<ClusterCombination>(
      "MM-" + std::to_string(nodes), std::move(config), mm_algo());
}

TEST(PaperPipeline, GeRequiredSizeGrowsWithSystem) {
  // Table 3's qualitative content.
  run::Runner runner(1);
  auto g2 = ge_combo(2);
  auto g4 = ge_combo(4);
  auto g8 = ge_combo(8);
  std::vector<Combination*> combos{g2.get(), g4.get(), g8.get()};
  const auto report = scalability_series(combos, 0.3, runner);
  ASSERT_TRUE(report.points[0].found);
  ASSERT_TRUE(report.points[1].found);
  ASSERT_TRUE(report.points[2].found);
  EXPECT_LT(report.points[0].n, report.points[1].n);
  EXPECT_LT(report.points[1].n, report.points[2].n);
  // Marked speed grows along the ladder.
  EXPECT_LT(report.points[0].marked_speed, report.points[1].marked_speed);
}

TEST(PaperPipeline, GeScalabilityBetweenZeroAndOne) {
  // Table 4's qualitative content: ψ < 1 (sequential portion + growing
  // communication), but not collapsing.
  run::Runner runner(1);
  auto g2 = ge_combo(2);
  auto g4 = ge_combo(4);
  std::vector<Combination*> combos{g2.get(), g4.get()};
  const auto report = scalability_series(combos, 0.3, runner);
  ASSERT_EQ(report.steps.size(), 1u);
  EXPECT_GT(report.steps[0].psi, 0.2);
  EXPECT_LT(report.steps[0].psi, 1.0);
}

TEST(PaperPipeline, MmMoreScalableThanGe) {
  // §4.4.3: "the scalability of MM-Sunwulf combination is higher" — GE has
  // a sequential portion and per-step broadcasts/barriers that recur N
  // times. Compared over the 2→4→8 ladder at the paper's targets
  // (GE 0.3, MM 0.2), MM's cumulative ψ must come out ahead, and its later
  // steps individually so.
  run::Runner runner(1);
  auto g2 = ge_combo(2);
  auto g4 = ge_combo(4);
  auto g8 = ge_combo(8);
  std::vector<Combination*> ge{g2.get(), g4.get(), g8.get()};
  const auto ge_report = scalability_series(ge, 0.3, runner);

  auto m2 = mm_combo(2);
  auto m4 = mm_combo(4);
  auto m8 = mm_combo(8);
  std::vector<Combination*> mm{m2.get(), m4.get(), m8.get()};
  const auto mm_report = scalability_series(mm, 0.2, runner);

  for (const auto& point : ge_report.points) ASSERT_TRUE(point.found);
  for (const auto& point : mm_report.points) ASSERT_TRUE(point.found);
  EXPECT_GT(mm_report.cumulative_psi(), ge_report.cumulative_psi());
  EXPECT_GT(mm_report.steps[1].psi, ge_report.steps[1].psi);
}

TEST(PaperPipeline, OperatingPointsSatisfyIsoCondition) {
  // The solved points actually hold E_s ~ target (Definition 4's premise).
  run::Runner runner(1);
  auto g2 = ge_combo(2);
  const auto solved = required_problem_size(*g2, 0.3, runner);
  ASSERT_TRUE(solved.found);
  EXPECT_GE(solved.achieved_es, 0.3);
  // Smallest such N: one size down misses the target.
  EXPECT_LT(g2->measure(solved.n - 1).speed_efficiency, 0.3);
}

TEST(PaperPipeline, Fig1VerificationDotStyleCheck) {
  // Fig. 1's gray-dot check: read N off the trend line, then measure at
  // that N and land near the target efficiency.
  run::Runner runner(1);
  auto g2 = ge_combo(2);
  IsoSolveOptions trend;
  trend.method = IsoSolveOptions::Method::kTrendLine;
  trend.trend_n_lo = 64;
  trend.trend_n_hi = 1024;
  const auto result = required_problem_size(*g2, 0.3, runner, trend);
  ASSERT_TRUE(result.found);
  EXPECT_NEAR(result.achieved_es, 0.3, 0.05);
}

}  // namespace
}  // namespace hetscale::scal
