#include "hetscale/scal/exec_time.hpp"

#include <gtest/gtest.h>

#include "analytic_combination.hpp"
#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::scal {
namespace {

using testing::AnalyticCombination;

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
  AnalyticCombination a("a", 1e8, 10.0);
  AnalyticCombination b("b", 1e8, 10.0);
  EXPECT_THROW(find_time_crossing(a, b, 10, 10), PreconditionError);
}

}  // namespace
}  // namespace hetscale::scal
