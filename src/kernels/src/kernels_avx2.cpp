// AVX2 kernels. This is the only translation unit compiled with -mavx2, so
// nothing outside it can accidentally inline AVX2 code onto a pre-AVX2
// machine; dispatch.cpp only follows the table pointer after a runtime
// cpuid check (or an explicit HETSCALE_KERNEL=avx2).
//
// Bit-identity with the scalar reference is load-bearing (golden artifacts
// are byte-compared), and rests on three facts:
//   * every lane computes one output element from the same inputs the
//     scalar loop would use — vectorizing never reassociates across
//     elements;
//   * multiply and add/subtract stay separate instructions: the TU is built
//     with -ffp-contract=off and without -mfma, so `a*b + c` cannot fuse
//     into one differently-rounded FMA;
//   * the matmul tile keeps its C accumulators in registers across the
//     k-loop, and the rank-1 tile its rows across the pivot loop, which is
//     associatively identical to the scalar loops' store per k or per
//     pivot — the same operations hit the same element in the same order.
#include "kernels_internal.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace hetscale::kernels::detail {
namespace {

void axpy_avx2(double a, const double* x, double* y, std::size_t n) {
  const __m256d av = _mm256_set1_pd(a);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d p0 = _mm256_mul_pd(av, _mm256_loadu_pd(x + i));
    const __m256d p1 = _mm256_mul_pd(av, _mm256_loadu_pd(x + i + 4));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), p0));
    _mm256_storeu_pd(y + i + 4,
                     _mm256_add_pd(_mm256_loadu_pd(y + i + 4), p1));
  }
  for (; i + 4 <= n; i += 4) {
    const __m256d p = _mm256_mul_pd(av, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), p));
  }
  for (; i < n; ++i) y[i] += a * x[i];
}

void rank1_update4_avx2(const double* const* xs, std::size_t m,
                        double* const* rows, const double* const* factors,
                        std::size_t n) {
  double* y0 = rows[0];
  double* y1 = rows[1];
  double* y2 = rows[2];
  double* y3 = rows[3];
  const double* f0 = factors[0];
  const double* f1 = factors[1];
  const double* f2 = factors[2];
  const double* f3 = factors[3];
  std::size_t c = 0;
  // 4 rows x 8 columns: eight accumulators stay in registers through all m
  // pivots, so each row segment is loaded and stored once per call.
  for (; c + 8 <= n; c += 8) {
    __m256d s00 = _mm256_loadu_pd(y0 + c);
    __m256d s01 = _mm256_loadu_pd(y0 + c + 4);
    __m256d s10 = _mm256_loadu_pd(y1 + c);
    __m256d s11 = _mm256_loadu_pd(y1 + c + 4);
    __m256d s20 = _mm256_loadu_pd(y2 + c);
    __m256d s21 = _mm256_loadu_pd(y2 + c + 4);
    __m256d s30 = _mm256_loadu_pd(y3 + c);
    __m256d s31 = _mm256_loadu_pd(y3 + c + 4);
    for (std::size_t j = 0; j < m; ++j) {
      const double* x = xs[j] + c;
      const __m256d x0 = _mm256_loadu_pd(x);
      const __m256d x1 = _mm256_loadu_pd(x + 4);
      __m256d f = _mm256_broadcast_sd(f0 + j);
      s00 = _mm256_sub_pd(s00, _mm256_mul_pd(f, x0));
      s01 = _mm256_sub_pd(s01, _mm256_mul_pd(f, x1));
      f = _mm256_broadcast_sd(f1 + j);
      s10 = _mm256_sub_pd(s10, _mm256_mul_pd(f, x0));
      s11 = _mm256_sub_pd(s11, _mm256_mul_pd(f, x1));
      f = _mm256_broadcast_sd(f2 + j);
      s20 = _mm256_sub_pd(s20, _mm256_mul_pd(f, x0));
      s21 = _mm256_sub_pd(s21, _mm256_mul_pd(f, x1));
      f = _mm256_broadcast_sd(f3 + j);
      s30 = _mm256_sub_pd(s30, _mm256_mul_pd(f, x0));
      s31 = _mm256_sub_pd(s31, _mm256_mul_pd(f, x1));
    }
    _mm256_storeu_pd(y0 + c, s00);
    _mm256_storeu_pd(y0 + c + 4, s01);
    _mm256_storeu_pd(y1 + c, s10);
    _mm256_storeu_pd(y1 + c + 4, s11);
    _mm256_storeu_pd(y2 + c, s20);
    _mm256_storeu_pd(y2 + c + 4, s21);
    _mm256_storeu_pd(y3 + c, s30);
    _mm256_storeu_pd(y3 + c + 4, s31);
  }
  for (; c + 4 <= n; c += 4) {
    __m256d s0 = _mm256_loadu_pd(y0 + c);
    __m256d s1 = _mm256_loadu_pd(y1 + c);
    __m256d s2 = _mm256_loadu_pd(y2 + c);
    __m256d s3 = _mm256_loadu_pd(y3 + c);
    for (std::size_t j = 0; j < m; ++j) {
      const __m256d xv = _mm256_loadu_pd(xs[j] + c);
      s0 = _mm256_sub_pd(s0, _mm256_mul_pd(_mm256_broadcast_sd(f0 + j), xv));
      s1 = _mm256_sub_pd(s1, _mm256_mul_pd(_mm256_broadcast_sd(f1 + j), xv));
      s2 = _mm256_sub_pd(s2, _mm256_mul_pd(_mm256_broadcast_sd(f2 + j), xv));
      s3 = _mm256_sub_pd(s3, _mm256_mul_pd(_mm256_broadcast_sd(f3 + j), xv));
    }
    _mm256_storeu_pd(y0 + c, s0);
    _mm256_storeu_pd(y1 + c, s1);
    _mm256_storeu_pd(y2 + c, s2);
    _mm256_storeu_pd(y3 + c, s3);
  }
  for (; c < n; ++c) {
    double s0 = y0[c];
    double s1 = y1[c];
    double s2 = y2[c];
    double s3 = y3[c];
    for (std::size_t j = 0; j < m; ++j) {
      const double xc = xs[j][c];
      s0 -= f0[j] * xc;
      s1 -= f1[j] * xc;
      s2 -= f2[j] * xc;
      s3 -= f3[j] * xc;
    }
    y0[c] = s0;
    y1[c] = s1;
    y2[c] = s2;
    y3[c] = s3;
  }
}

void mm_tile4_avx2(const double* const* a_rows, const double* panel,
                   std::size_t kc, std::size_t nc, double* const* c_rows) {
  const double* a0 = a_rows[0];
  const double* a1 = a_rows[1];
  const double* a2 = a_rows[2];
  const double* a3 = a_rows[3];
  double* c0 = c_rows[0];
  double* c1 = c_rows[1];
  double* c2 = c_rows[2];
  double* c3 = c_rows[3];
  std::size_t j = 0;
  // 4 rows x 8 columns: eight accumulators live in registers through the
  // whole k-loop; each B panel row is loaded once per four C rows.
  for (; j + 8 <= nc; j += 8) {
    __m256d s00 = _mm256_loadu_pd(c0 + j);
    __m256d s01 = _mm256_loadu_pd(c0 + j + 4);
    __m256d s10 = _mm256_loadu_pd(c1 + j);
    __m256d s11 = _mm256_loadu_pd(c1 + j + 4);
    __m256d s20 = _mm256_loadu_pd(c2 + j);
    __m256d s21 = _mm256_loadu_pd(c2 + j + 4);
    __m256d s30 = _mm256_loadu_pd(c3 + j);
    __m256d s31 = _mm256_loadu_pd(c3 + j + 4);
    const double* prow = panel + j;
    for (std::size_t k = 0; k < kc; ++k, prow += nc) {
      const __m256d b0 = _mm256_loadu_pd(prow);
      const __m256d b1 = _mm256_loadu_pd(prow + 4);
      __m256d av = _mm256_set1_pd(a0[k]);
      s00 = _mm256_add_pd(s00, _mm256_mul_pd(av, b0));
      s01 = _mm256_add_pd(s01, _mm256_mul_pd(av, b1));
      av = _mm256_set1_pd(a1[k]);
      s10 = _mm256_add_pd(s10, _mm256_mul_pd(av, b0));
      s11 = _mm256_add_pd(s11, _mm256_mul_pd(av, b1));
      av = _mm256_set1_pd(a2[k]);
      s20 = _mm256_add_pd(s20, _mm256_mul_pd(av, b0));
      s21 = _mm256_add_pd(s21, _mm256_mul_pd(av, b1));
      av = _mm256_set1_pd(a3[k]);
      s30 = _mm256_add_pd(s30, _mm256_mul_pd(av, b0));
      s31 = _mm256_add_pd(s31, _mm256_mul_pd(av, b1));
    }
    _mm256_storeu_pd(c0 + j, s00);
    _mm256_storeu_pd(c0 + j + 4, s01);
    _mm256_storeu_pd(c1 + j, s10);
    _mm256_storeu_pd(c1 + j + 4, s11);
    _mm256_storeu_pd(c2 + j, s20);
    _mm256_storeu_pd(c2 + j + 4, s21);
    _mm256_storeu_pd(c3 + j, s30);
    _mm256_storeu_pd(c3 + j + 4, s31);
  }
  for (; j + 4 <= nc; j += 4) {
    __m256d s0 = _mm256_loadu_pd(c0 + j);
    __m256d s1 = _mm256_loadu_pd(c1 + j);
    __m256d s2 = _mm256_loadu_pd(c2 + j);
    __m256d s3 = _mm256_loadu_pd(c3 + j);
    const double* prow = panel + j;
    for (std::size_t k = 0; k < kc; ++k, prow += nc) {
      const __m256d bv = _mm256_loadu_pd(prow);
      s0 = _mm256_add_pd(s0, _mm256_mul_pd(_mm256_set1_pd(a0[k]), bv));
      s1 = _mm256_add_pd(s1, _mm256_mul_pd(_mm256_set1_pd(a1[k]), bv));
      s2 = _mm256_add_pd(s2, _mm256_mul_pd(_mm256_set1_pd(a2[k]), bv));
      s3 = _mm256_add_pd(s3, _mm256_mul_pd(_mm256_set1_pd(a3[k]), bv));
    }
    _mm256_storeu_pd(c0 + j, s0);
    _mm256_storeu_pd(c1 + j, s1);
    _mm256_storeu_pd(c2 + j, s2);
    _mm256_storeu_pd(c3 + j, s3);
  }
  for (; j < nc; ++j) {
    double s0 = c0[j];
    double s1 = c1[j];
    double s2 = c2[j];
    double s3 = c3[j];
    const double* p = panel + j;
    for (std::size_t k = 0; k < kc; ++k, p += nc) {
      const double bj = *p;
      s0 += a0[k] * bj;
      s1 += a1[k] * bj;
      s2 += a2[k] * bj;
      s3 += a3[k] * bj;
    }
    c0[j] = s0;
    c1[j] = s1;
    c2[j] = s2;
    c3[j] = s3;
  }
}

}  // namespace

const KernelOps* avx2_table() {
  static const KernelOps table{Isa::kAvx2, axpy_avx2, rank1_update4_avx2,
                               mm_tile4_avx2};
  return &table;
}

}  // namespace hetscale::kernels::detail

#else  // !defined(__AVX2__)

namespace hetscale::kernels::detail {

const KernelOps* avx2_table() { return nullptr; }

}  // namespace hetscale::kernels::detail

#endif
