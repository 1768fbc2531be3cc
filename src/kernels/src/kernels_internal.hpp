// Private seams between the dispatch table and its implementation TUs.
// kernels_avx2.cpp is the only file compiled with -mavx2; everything it
// exports crosses this header so no AVX2 code is reachable before the
// runtime CPU check in dispatch.cpp.
#pragma once

#include "hetscale/kernels/dispatch.hpp"

namespace hetscale::kernels::detail {

// Scalar reference kernels (kernels_scalar.cpp). These define the
// per-element operation sequence every other ISA must reproduce exactly.
void axpy_scalar(double a, const double* x, double* y, std::size_t n);
void rank1_update4_scalar(const double* const* xs, std::size_t m,
                          double* const* rows, const double* const* factors,
                          std::size_t n);
void mm_tile4_scalar(const double* const* a_rows, const double* panel,
                     std::size_t kc, std::size_t nc, double* const* c_rows);

// The AVX2 table (kernels_avx2.cpp), or nullptr when that TU was built
// without AVX2 support (non-x86 target or a compiler without -mavx2).
// Presence of the table says nothing about the *running* CPU — callers must
// still consult cpu_supports_avx2().
const KernelOps* avx2_table();

}  // namespace hetscale::kernels::detail
