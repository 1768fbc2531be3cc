#include "hetscale/scal/baselines.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::scal {
namespace {

TEST(Baselines, SpeedupAndEfficiency) {
  EXPECT_DOUBLE_EQ(speedup(10.0, 2.0), 5.0);
}

TEST(Baselines, ProductivityAndJwScalability) {
  // Value 2e8 flop/s at $0.02/s vs 4e8 at $0.05/s: productivity drops.
  const double base = productivity(2e8, 0.02);
  const double scaled = productivity(4e8, 0.05);
  EXPECT_DOUBLE_EQ(base, 1e10);
  EXPECT_DOUBLE_EQ(scaled, 8e9);
  EXPECT_DOUBLE_EQ(jw_scalability(base, scaled), 0.8);
}

TEST(Baselines, ClusterCostScalesWithAggregateRate) {
  const auto small = machine::sunwulf::ge_ensemble(2);
  const auto large = machine::sunwulf::ge_ensemble(8);
  const double price = 0.10;  // $ per Mflop/s-hour
  const double cost_small = cluster_cost_per_s(small, price);
  const double cost_large = cluster_cost_per_s(large, price);
  EXPECT_GT(cost_large, cost_small);
  EXPECT_NEAR(cost_small,
              small.aggregate_rate_flops() / 1e6 * price / 3600.0, 1e-12);
}

TEST(Baselines, EquivalentProcessors) {
  const std::vector<double> speeds{26e6, 26e6, 27.5e6, 55e6};
  EXPECT_NEAR(equivalent_processors(speeds, 27.5e6), 134.5 / 27.5, 1e-12);
}

TEST(Baselines, PastorBosqueEfficiencyAtIdealSpeedupIsOne) {
  // t_seq_ref / t_par equal to the equivalent processor count -> E = 1.
  const std::vector<double> speeds{1e8, 1e8};
  const double eq = equivalent_processors(speeds, 1e8);  // 2
  EXPECT_DOUBLE_EQ(pastor_bosque_efficiency(10.0, 10.0 / eq, speeds, 1e8),
                   1.0);
}

TEST(Baselines, PastorBosqueRequiresSequentialTime) {
  const std::vector<double> speeds{1e8};
  EXPECT_THROW(pastor_bosque_efficiency(0.0, 1.0, speeds, 1e8),
               PreconditionError);
}

TEST(Baselines, InvalidInputsRejected) {
  EXPECT_THROW(speedup(0.0, 1.0), PreconditionError);
  EXPECT_THROW(productivity(1.0, 0.0), PreconditionError);
  EXPECT_THROW(jw_scalability(0.0, 1.0), PreconditionError);
  const std::vector<double> bad{1.0, 0.0};
  EXPECT_THROW(equivalent_processors(bad, 1.0), PreconditionError);
}

}  // namespace
}  // namespace hetscale::scal
