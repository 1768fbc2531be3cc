#include "hetscale/numeric/stats.hpp"

#include <algorithm>
#include <cmath>

#include "hetscale/support/error.hpp"

namespace hetscale::numeric {

double mean(std::span<const double> xs) {
  HETSCALE_REQUIRE(!xs.empty(), "mean of empty sample");
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double relative_error(double a, double b) {
  constexpr double kEps = 1e-300;
  const double denom = std::max({std::abs(a), std::abs(b), kEps});
  return std::abs(a - b) / denom;
}

}  // namespace hetscale::numeric
