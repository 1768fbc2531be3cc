#include "hetscale/numeric/polynomial.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "hetscale/support/error.hpp"
#include "hetscale/support/rng.hpp"

namespace hetscale::numeric {
namespace {

TEST(Polynomial, HornerEvaluation) {
  const Polynomial p({1.0, 2.0, 3.0});  // 1 + 2x + 3x^2
  EXPECT_DOUBLE_EQ(p(0.0), 1.0);
  EXPECT_DOUBLE_EQ(p(1.0), 6.0);
  EXPECT_DOUBLE_EQ(p(2.0), 17.0);
  EXPECT_DOUBLE_EQ(p(-1.0), 2.0);
}

TEST(Polynomial, DegreeIgnoresTrailingZeros) {
  EXPECT_EQ(Polynomial({1, 2, 0, 0}).degree(), 1u);
  EXPECT_EQ(Polynomial({5}).degree(), 0u);
  EXPECT_EQ(Polynomial(std::vector<double>{}).degree(), 0u);
}

TEST(Polyfit, RecoversExactPolynomial) {
  const Polynomial truth({2.0, -1.0, 0.5});
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x = -3; x <= 3; x += 0.5) {
    xs.push_back(x);
    ys.push_back(truth(x));
  }
  const Polynomial fit = polyfit(xs, ys, 2);
  for (double x = -3; x <= 3; x += 0.25) {
    EXPECT_NEAR(fit(x), truth(x), 1e-9);
  }
}

TEST(Polyfit, HandlesLargeAbscissaeStably) {
  // Sizes like N in [100, 2000] — the actual trend-line regime.
  const Polynomial truth({0.1, 2e-4, -5e-8});
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x = 100; x <= 2000; x += 100) {
    xs.push_back(x);
    ys.push_back(truth(x));
  }
  const Polynomial fit = polyfit(xs, ys, 2);
  for (double x : xs) EXPECT_NEAR(fit(x), truth(x), 1e-8);
}

TEST(Polyfit, NeedsEnoughSamples) {
  const std::vector<double> xs{1, 2};
  const std::vector<double> ys{1, 2};
  EXPECT_THROW(polyfit(xs, ys, 2), PreconditionError);
}

TEST(Polyfit, DuplicateXsMakeFitSingular) {
  const std::vector<double> xs{1, 1, 1, 1};
  const std::vector<double> ys{1, 2, 3, 4};
  EXPECT_THROW(polyfit(xs, ys, 2), NumericError);
}

TEST(Polyfit, NoisyDataStillCloseInLeastSquares) {
  const Polynomial truth({1.0, 0.5});
  Rng rng(99);
  std::vector<double> xs;
  std::vector<double> ys;
  for (double x = 0; x < 50; x += 1) {
    xs.push_back(x);
    ys.push_back(truth(x) + rng.normal(0.0, 0.01));
  }
  const Polynomial fit = polyfit(xs, ys, 1);
  EXPECT_NEAR(fit.coefficients()[0], 1.0, 0.05);
  EXPECT_NEAR(fit.coefficients()[1], 0.5, 0.005);
}

TEST(RSquared, PerfectFitIsOne) {
  const Polynomial p({0.0, 1.0});
  const std::vector<double> xs{1, 2, 3};
  const std::vector<double> ys{1, 2, 3};
  EXPECT_DOUBLE_EQ(r_squared(p, xs, ys), 1.0);
}

TEST(RSquared, MeanModelIsZero) {
  const Polynomial p({2.0});  // constant = mean of ys
  const std::vector<double> xs{1, 2, 3};
  const std::vector<double> ys{1, 2, 3};
  EXPECT_NEAR(r_squared(p, xs, ys), 0.0, 1e-12);
}

}  // namespace
}  // namespace hetscale::numeric
