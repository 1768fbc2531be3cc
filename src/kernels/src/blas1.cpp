#include "hetscale/kernels/blas1.hpp"

#include <algorithm>
#include <array>
#include <vector>

#include "hetscale/kernels/dispatch.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::kernels {

void axpy(double a, std::span<const double> x, std::span<double> y) {
  HETSCALE_REQUIRE(x.size() == y.size(), "axpy length mismatch");
  ops().axpy(a, x.data(), y.data(), x.size());
}

namespace {

/// One target row, pivot by pivot: y += (-f) * x is the same per-element
/// arithmetic as y -= f * x (sign flip and subtraction are both exact).
void update_row(const KernelOps& k, std::span<const double* const> xs,
                std::size_t n, double* row, const double* factors) {
  for (std::size_t j = 0; j < xs.size(); ++j) {
    if (factors[j] != 0.0) k.axpy(-factors[j], xs[j], row, n);
  }
}

}  // namespace

void rank1_update(std::span<const double* const> xs, std::size_t n,
                  std::span<double* const> rows,
                  std::span<const double* const> factors) {
  HETSCALE_REQUIRE(rows.size() == factors.size(),
                   "rank1_update needs one factor list per row");
  const KernelOps& k = ops();
  const std::size_t m = xs.size();
  std::array<double*, 4> tile_rows{};
  std::array<const double*, 4> tile_factors{};
  std::size_t tiled = 0;
  for (std::size_t r = 0; r < rows.size(); ++r) {
    const double* f = factors[r];
    if (std::find(f, f + m, 0.0) != f + m) {  // also matches -0.0
      update_row(k, xs, n, rows[r], f);
      continue;
    }
    tile_rows[tiled] = rows[r];
    tile_factors[tiled] = f;
    if (++tiled == tile_rows.size()) {
      k.rank1_update4(xs.data(), m, tile_rows.data(), tile_factors.data(), n);
      tiled = 0;
    }
  }
  for (std::size_t r = 0; r < tiled; ++r) {
    update_row(k, xs, n, tile_rows[r], tile_factors[r]);
  }
}

void eliminate_block(std::span<const double* const> pivots,
                     std::span<double* const> rows, std::size_t width) {
  const std::size_t m = pivots.size();
  HETSCALE_REQUIRE(m <= width, "eliminate_block needs m <= width");
  if (m == 0 || rows.empty()) return;
  // Head: pivot j's factor is column j after pivots [0, j) touched it, so
  // the head columns [0, m) go one pivot at a time, each factor recorded
  // for the tail.
  std::vector<double> factors(rows.size() * m);
  std::vector<const double*> factor_rows(rows.size());
  std::vector<double*> tails(rows.size());
  for (std::size_t r = 0; r < rows.size(); ++r) {
    double* row = rows[r];
    double* f = factors.data() + r * m;
    for (std::size_t j = 0; j < m; ++j) {
      f[j] = row[j];
      if (f[j] == 0.0) continue;
      const double* pivot = pivots[j];
      for (std::size_t c = j; c < m; ++c) row[c] -= f[j] * pivot[c - j];
    }
    factor_rows[r] = f;
    tails[r] = row + m;
  }
  // Tail: no column in [m, width) feeds a factor, so every pivot's update
  // there can run in one fused pass.
  std::vector<const double*> pivot_tails(m);
  for (std::size_t j = 0; j < m; ++j) pivot_tails[j] = pivots[j] + (m - j);
  rank1_update(pivot_tails, width - m, tails, factor_rows);
}

double dot(std::span<const double> x, std::span<const double> y) {
  // Deliberately scalar under every dispatch table: a vectorized dot sums
  // partial lanes, which reassociates the reduction and breaks the
  // bit-identity contract (dispatch.hpp).
  HETSCALE_REQUIRE(x.size() == y.size(), "dot length mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) acc += x[i] * y[i];
  return acc;
}

void scale(double a, std::span<double> x) {
  for (double& v : x) v *= a;
}

double eliminate_row(std::span<const double> pivot_row, double pivot_rhs,
                     std::span<double> row, double& rhs, std::size_t lead) {
  HETSCALE_REQUIRE(pivot_row.size() == row.size(), "row length mismatch");
  HETSCALE_REQUIRE(lead < row.size(), "lead column out of range");
  const double factor = row[lead];
  if (factor != 0.0) {
    for (std::size_t c = lead; c < row.size(); ++c) {
      row[c] -= factor * pivot_row[c];
    }
    rhs -= factor * pivot_rhs;
  }
  return factor;
}

}  // namespace hetscale::kernels
