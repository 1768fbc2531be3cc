#include "hetscale/numeric/polynomial.hpp"

#include <cmath>

#include "hetscale/numeric/linsolve.hpp"
#include "hetscale/numeric/matrix.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::numeric {

Polynomial::Polynomial(std::vector<double> coefficients)
    : coefficients_(std::move(coefficients)) {
  if (coefficients_.empty()) coefficients_ = {0.0};
}

std::size_t Polynomial::degree() const {
  std::size_t d = coefficients_.size() - 1;
  while (d > 0 && coefficients_[d] == 0.0) --d;
  return d;
}

double Polynomial::operator()(double x) const {
  double acc = 0.0;
  for (std::size_t i = coefficients_.size(); i-- > 0;)
    acc = acc * x + coefficients_[i];
  return acc;
}

Polynomial polyfit(std::span<const double> xs, std::span<const double> ys,
                   std::size_t degree) {
  HETSCALE_REQUIRE(xs.size() == ys.size(), "xs and ys must have equal length");
  HETSCALE_REQUIRE(xs.size() >= degree + 1,
                   "need at least degree+1 samples to fit");
  const std::size_t m = degree + 1;

  // Scale x into [-1, 1]-ish to keep the Vandermonde columns comparable.
  double xmax = 1.0;
  for (double x : xs) xmax = std::max(xmax, std::abs(x));
  const double scale = 1.0 / xmax;

  // Normal equations in the scaled variable: (V^T V) c_s = V^T y.
  Matrix ata(m, m);
  std::vector<double> aty(m, 0.0);
  for (std::size_t s = 0; s < xs.size(); ++s) {
    std::vector<double> pow(m, 1.0);
    const double x = xs[s] * scale;
    for (std::size_t i = 1; i < m; ++i) pow[i] = pow[i - 1] * x;
    for (std::size_t i = 0; i < m; ++i) {
      aty[i] += pow[i] * ys[s];
      for (std::size_t j = 0; j < m; ++j) ata(i, j) += pow[i] * pow[j];
    }
  }
  std::vector<double> scaled;
  try {
    scaled = solve_dense(std::move(ata), std::move(aty), Pivoting::kPartial);
  } catch (const NumericError&) {
    throw NumericError("polyfit: normal equations are singular");
  }
  // Undo the x scaling: c[i] = c_s[i] * scale^i.
  std::vector<double> coeff(m);
  double f = 1.0;
  for (std::size_t i = 0; i < m; ++i) {
    coeff[i] = scaled[i] * f;
    f *= scale;
  }
  return Polynomial(std::move(coeff));
}

double r_squared(const Polynomial& p, std::span<const double> xs,
                 std::span<const double> ys) {
  HETSCALE_REQUIRE(xs.size() == ys.size() && !xs.empty(),
                   "need matching, non-empty samples");
  double mean = 0.0;
  for (double y : ys) mean += y;
  mean /= static_cast<double>(ys.size());
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double e = ys[i] - p(xs[i]);
    ss_res += e * e;
    const double d = ys[i] - mean;
    ss_tot += d * d;
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

}  // namespace hetscale::numeric
