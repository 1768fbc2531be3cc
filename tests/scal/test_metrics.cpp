#include "hetscale/scal/metrics.hpp"

#include <gtest/gtest.h>

#include "hetscale/support/error.hpp"

namespace hetscale::scal {
namespace {

TEST(Metrics, AchievedSpeedIsWorkOverTime) {
  EXPECT_DOUBLE_EQ(achieved_speed(1e9, 2.0), 5e8);
}

TEST(Metrics, SpeedEfficiencyDefinition) {
  // W = 1e9 flops in 2 s on a C = 1e9 flop/s system: S = 5e8, E_s = 0.5.
  EXPECT_DOUBLE_EQ(speed_efficiency(1e9, 2.0, 1e9), 0.5);
}

TEST(Metrics, SpeedEfficiencyIsOneWhenAchievingMarkedSpeed) {
  EXPECT_DOUBLE_EQ(speed_efficiency(3e9, 3.0, 1e9), 1.0);
}

TEST(Metrics, PsiIsOneForIdealScaling) {
  // The ideal scaled work W' = W * C' / C: tripling C triples W.
  EXPECT_DOUBLE_EQ(isospeed_efficiency_scalability(1e8, 5e9, 3e8, 1.5e10),
                   1.0);
}

TEST(Metrics, PsiBelowOneWhenWorkGrowsSuperlinearly) {
  // W' > ideal -> psi < 1 (the common case, paper §3.3).
  const double ideal = 1e10;  // 5e9 * 2e8 / 1e8
  EXPECT_LT(isospeed_efficiency_scalability(1e8, 5e9, 2e8, 1.5 * ideal), 1.0);
  EXPECT_NEAR(
      isospeed_efficiency_scalability(1e8, 5e9, 2e8, 1.5 * ideal), 1.0 / 1.5,
      1e-12);
}

TEST(Metrics, PsiHomogeneousReduction) {
  // With C = p * C_i, psi reduces exactly to the Sun–Rover form.
  const double ci = 27.5e6;
  const double p = 4;
  const double p2 = 8;
  const double w = 1e9;
  const double w2 = 2.7e9;
  EXPECT_DOUBLE_EQ(
      isospeed_efficiency_scalability(p * ci, w, p2 * ci, w2),
      isospeed_scalability(p, w, p2, w2));
}

TEST(Metrics, PsiComposesMultiplicatively) {
  // psi(C1,C3) == psi(C1,C2) * psi(C2,C3) at fixed operating points.
  const double c1 = 1e8;
  const double c2 = 2e8;
  const double c3 = 5e8;
  const double w1 = 1e9;
  const double w2 = 3e9;
  const double w3 = 9e9;
  EXPECT_NEAR(isospeed_efficiency_scalability(c1, w1, c3, w3),
              isospeed_efficiency_scalability(c1, w1, c2, w2) *
                  isospeed_efficiency_scalability(c2, w2, c3, w3),
              1e-12);
}

TEST(Metrics, InvalidInputsRejected) {
  EXPECT_THROW(achieved_speed(1e9, 0.0), PreconditionError);
  EXPECT_THROW(speed_efficiency(1e9, 1.0, 0.0), PreconditionError);
  EXPECT_THROW(isospeed_efficiency_scalability(0.0, 1.0, 1.0, 1.0),
               PreconditionError);
  EXPECT_THROW(isospeed_efficiency_scalability(1.0, 0.0, 1.0, 1.0),
               PreconditionError);
}

}  // namespace
}  // namespace hetscale::scal
