// Effective marked speed — the time average is an exact integral over the
// plan's piecewise-constant factors, so hand-computed cases must match to
// rounding error.
#include "hetscale/fault/analysis.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "hetscale/support/error.hpp"

namespace hetscale::fault {
namespace {

TEST(Analysis, HealthyPlanKeepsTheMarkedSpeed) {
  const FaultPlan plan;
  EXPECT_DOUBLE_EQ(mean_effective_rank_speed(plan, 0, 100.0, 10.0), 100.0);
  const std::vector<double> speeds{100.0, 50.0};
  EXPECT_DOUBLE_EQ(mean_effective_marked_speed(plan, speeds, 10.0), 150.0);
}

TEST(Analysis, MeanIsTheExactIntegral) {
  FaultPlan plan;
  plan.add_slowdown({0, 2.0, 4.0, 0.5});
  // Over [0, 10): 8 s at 100 + 2 s at 50 = 900 / 10.
  EXPECT_DOUBLE_EQ(mean_effective_rank_speed(plan, 0, 100.0, 10.0), 90.0);
  // A window extending past the horizon is clamped: over [0, 3),
  // 2 s at 100 + 1 s at 50 = 250 / 3.
  EXPECT_DOUBLE_EQ(mean_effective_rank_speed(plan, 0, 100.0, 3.0),
                   250.0 / 3.0);
}

TEST(Analysis, MarkedSpeedSumsOverRanks) {
  FaultPlan plan;
  plan.add_slowdown({0, 0.0, 5.0, 0.5});
  plan.add_slowdown({1, 5.0, 10.0, 0.2});
  const std::vector<double> speeds{100.0, 50.0};
  // Rank 0: (5*50 + 5*100)/10 = 75. Rank 1: (5*50 + 5*10)/10 = 30.
  EXPECT_DOUBLE_EQ(mean_effective_marked_speed(plan, speeds, 10.0), 105.0);
}

TEST(Analysis, ValidatesItsInputs) {
  const FaultPlan plan;
  const std::vector<double> speeds{100.0};
  EXPECT_THROW(mean_effective_rank_speed(plan, 0, 100.0, 0.0),
               PreconditionError);
  EXPECT_THROW(mean_effective_rank_speed(plan, 0, -1.0, 1.0),
               PreconditionError);
  EXPECT_THROW(mean_effective_marked_speed(plan, speeds, 0.0),
               PreconditionError);
}

}  // namespace
}  // namespace hetscale::fault
