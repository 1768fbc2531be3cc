// Scalar reference kernels. The loops below are the normative operation
// sequence: any vector implementation must produce, for every output
// element, the same multiplies and adds in the same order (see
// dispatch.hpp). The four-way unrolls don't change per-element arithmetic —
// each lane touches its own element — they just give the compiler
// independent chains to pipeline.
#include "kernels_internal.hpp"

namespace hetscale::kernels::detail {

void axpy_scalar(double a, const double* x, double* y, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    y[i] += a * x[i];
    y[i + 1] += a * x[i + 1];
    y[i + 2] += a * x[i + 2];
    y[i + 3] += a * x[i + 3];
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void rank1_update4_scalar(const double* const* xs, std::size_t m,
                          double* const* rows, const double* const* factors,
                          std::size_t n) {
  double* y0 = rows[0];
  double* y1 = rows[1];
  double* y2 = rows[2];
  double* y3 = rows[3];
  for (std::size_t j = 0; j < m; ++j) {
    const double* x = xs[j];
    const double f0 = factors[0][j];
    const double f1 = factors[1][j];
    const double f2 = factors[2][j];
    const double f3 = factors[3][j];
    for (std::size_t c = 0; c < n; ++c) {
      const double xc = x[c];
      y0[c] -= f0 * xc;
      y1[c] -= f1 * xc;
      y2[c] -= f2 * xc;
      y3[c] -= f3 * xc;
    }
  }
}

void mm_tile4_scalar(const double* const* a_rows, const double* panel,
                     std::size_t kc, std::size_t nc, double* const* c_rows) {
  const double* a0 = a_rows[0];
  const double* a1 = a_rows[1];
  const double* a2 = a_rows[2];
  const double* a3 = a_rows[3];
  double* c0 = c_rows[0];
  double* c1 = c_rows[1];
  double* c2 = c_rows[2];
  double* c3 = c_rows[3];
  for (std::size_t k = 0; k < kc; ++k) {
    const double* brow = panel + k * nc;
    const double f0 = a0[k];
    const double f1 = a1[k];
    const double f2 = a2[k];
    const double f3 = a3[k];
    for (std::size_t j = 0; j < nc; ++j) {
      const double bj = brow[j];
      c0[j] += f0 * bj;
      c1[j] += f1 * bj;
      c2[j] += f2 * bj;
      c3[j] += f3 * bj;
    }
  }
}

}  // namespace hetscale::kernels::detail
