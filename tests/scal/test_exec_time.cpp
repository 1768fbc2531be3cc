#include "hetscale/scal/exec_time.hpp"

#include <gtest/gtest.h>

#include "analytic_combination.hpp"
#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/scal/metrics.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::scal {
namespace {

using testing::AnalyticCombination;

TEST(ExecTime, IsoEfficiencyTimeFormula) {
  // W = 1e9 flops at E_s = 0.25 on C = 1e8: T = 1e9/(0.25*1e8) = 40 s.
  EXPECT_DOUBLE_EQ(iso_efficiency_time(1e9, 1e8, 0.25), 40.0);
}

TEST(ExecTime, ScaledTimeRatioInvertsScalabilityRatio) {
  // Ref [8]: the more scalable combination has the smaller scaled time.
  EXPECT_DOUBLE_EQ(scaled_time_ratio(0.5, 0.25), 0.5);
  EXPECT_GT(scaled_time_ratio(0.2, 0.8), 1.0);  // a scales worse -> slower
}

TEST(ExecTime, RatioConsistentWithDefinitions) {
  // Two combinations from the same operating point (W, e, C) scaled to
  // systems of equal C': T' = W'/(eC') and psi = C'W/(CW') give
  // T_a'/T_b' = W_a'/W_b' = psi_b/psi_a.
  const double c = 1e8;
  const double c2 = 3e8;
  const double w = 1e9;
  const double e = 0.3;
  const double wa = 4e9;  // combination a needs more work
  const double wb = 3.2e9;
  const double psi_a = isospeed_efficiency_scalability(c, w, c2, wa);
  const double psi_b = isospeed_efficiency_scalability(c, w, c2, wb);
  const double ta = iso_efficiency_time(wa, c2, e);
  const double tb = iso_efficiency_time(wb, c2, e);
  EXPECT_NEAR(ta / tb, scaled_time_ratio(psi_a, psi_b), 1e-12);
}

TEST(ExecTime, CrossingFoundOnAnalyticPair) {
  // a: fast small system; b: big system with overhead — b wins at large n.
  AnalyticCombination a("small", 1e8, 10.0);   // high efficiency early
  AnalyticCombination b("big", 4e8, 2000.0);   // 4x capability, lazy start
  const auto crossing = find_time_crossing(a, b, 4, 1 << 20);
  ASSERT_TRUE(crossing.exists);
  EXPECT_GT(crossing.n, 4);
  // Just below the crossing a is faster; at it, b is.
  EXPECT_LE(crossing.time_b, crossing.time_a);
  EXPECT_LT(a.measure(crossing.n - 1).seconds,
            b.measure(crossing.n - 1).seconds);
}

TEST(ExecTime, NoCrossingWhenBNeverWins) {
  AnalyticCombination a("fast", 4e8, 10.0);
  AnalyticCombination b("slow", 1e8, 10.0);
  const auto crossing = find_time_crossing(a, b, 4, 4096);
  EXPECT_FALSE(crossing.exists);
  EXPECT_EQ(crossing.n, -1);
}

TEST(ExecTime, ImmediateCrossingAtLowerBound) {
  AnalyticCombination a("slow", 1e8, 10.0);
  AnalyticCombination b("fast", 4e8, 10.0);
  const auto crossing = find_time_crossing(a, b, 4, 4096);
  ASSERT_TRUE(crossing.exists);
  EXPECT_EQ(crossing.n, 4);
}

TEST(ExecTime, GeBigSystemOvertakesSmallOne) {
  // The simulated counterpart of test_ge's crossover: the 8-node system
  // starts slower (per-step collectives) and wins at large N.
  ClusterCombination::Config small_config;
  small_config.cluster = machine::sunwulf::ge_ensemble(2);
  small_config.with_data = false;
  ClusterCombination small("GE-2", std::move(small_config), ge_algo());
  ClusterCombination::Config big_config;
  big_config.cluster = machine::sunwulf::ge_ensemble(8);
  big_config.with_data = false;
  ClusterCombination big("GE-8", std::move(big_config), ge_algo());

  const auto crossing = find_time_crossing(small, big, 16, 1 << 14);
  ASSERT_TRUE(crossing.exists);
  EXPECT_GT(crossing.n, 16);      // not instant: overhead matters
  EXPECT_LT(crossing.n, 1 << 14); // but the capability eventually wins
}

TEST(ExecTime, InvalidInputsRejected) {
  EXPECT_THROW(iso_efficiency_time(0.0, 1e8, 0.5), PreconditionError);
  EXPECT_THROW(iso_efficiency_time(1e9, 1e8, 0.0), PreconditionError);
  EXPECT_THROW(iso_efficiency_time(1e9, 1e8, 1.5), PreconditionError);
  EXPECT_THROW(scaled_time_ratio(0.0, 1.0), PreconditionError);
  AnalyticCombination a("a", 1e8, 10.0);
  AnalyticCombination b("b", 1e8, 10.0);
  EXPECT_THROW(find_time_crossing(a, b, 10, 10), PreconditionError);
}

}  // namespace
}  // namespace hetscale::scal
