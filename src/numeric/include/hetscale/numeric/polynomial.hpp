// Polynomials and least-squares polynomial fitting.
//
// The paper reads required problem sizes off a "polynomial trend line" fitted
// to sampled speed-efficiency points (Figs. 1 and 2). This module provides
// that trend line: Horner evaluation, differentiation, and a numerically
// sane least-squares fit (column-scaled normal equations with partial
// pivoting — plenty for degree <= 6 over a few dozen samples).
#pragma once

#include <span>
#include <vector>

namespace hetscale::numeric {

/// Polynomial with coefficients in ascending order: c[0] + c[1] x + ...
class Polynomial {
 public:
  Polynomial() = default;
  explicit Polynomial(std::vector<double> coefficients);

  /// Degree (0 for constant; the zero polynomial also reports degree 0).
  std::size_t degree() const;

  std::span<const double> coefficients() const { return coefficients_; }

  /// Evaluate at x (Horner's method).
  double operator()(double x) const;

 private:
  std::vector<double> coefficients_{0.0};
};

/// Least-squares fit of a degree-`degree` polynomial to (x, y) samples.
/// Requires xs.size() == ys.size() and xs.size() >= degree + 1.
/// Throws NumericError if the normal equations are singular (e.g. duplicated
/// x values making the fit underdetermined).
Polynomial polyfit(std::span<const double> xs, std::span<const double> ys,
                   std::size_t degree);

/// Coefficient of determination R^2 of a fitted model over the samples.
double r_squared(const Polynomial& p, std::span<const double> xs,
                 std::span<const double> ys);

}  // namespace hetscale::numeric
