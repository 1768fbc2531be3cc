// Runtime CPU-feature dispatch for the computational kernels.
//
// The simulator's golden artifacts are byte-comparisons of floating-point
// output, so every vector path here carries a hard contract: it must perform
// the *same per-element operation sequence* as the scalar reference —
// element-wise lanes, explicit multiply then add/subtract, no FMA
// contraction, no reassociated reductions. Under that contract an AVX2 lane
// computes bit-for-bit what the scalar loop computes for the same element,
// and artifacts stay identical whichever table is selected. The same holds
// for fusing work across passes: the rank-1 tile applies m pivots in one
// pass over its rows, but every element still takes them in pivot order,
// exactly as m separate passes would. Kernels that cannot be vectorized
// without reassociating (dot's horizontal sum) stay scalar on purpose.
//
// The table is resolved once per process: HETSCALE_KERNEL=scalar|avx2
// forces an implementation (avx2 requires hardware support and fails loudly
// without it), otherwise the best ISA the CPU offers wins. Alignment is a
// throughput concern only — every entry point accepts unaligned pointers.
#pragma once

#include <cstddef>

namespace hetscale::kernels {

/// The instruction sets an implementation table may target.
enum class Isa { kScalar, kAvx2 };

/// Readable name: "scalar" or "avx2".
const char* isa_name(Isa isa);

/// True when the running CPU can execute the AVX2 table (and this binary
/// compiled one).
bool cpu_supports_avx2();

/// The ISA selected for this process (see file comment). Resolved on first
/// use, then constant for the process lifetime.
Isa active_isa();

/// Raw entry points of one kernel implementation. Pointers may be
/// unaligned; source and destination ranges must not alias.
struct KernelOps {
  Isa isa;

  /// y[i] += a * x[i] for i in [0, n).
  void (*axpy)(double a, const double* x, double* y, std::size_t n);

  /// rows[r][i] -= factors[r][j] * xs[j][i] for r in [0, 4), i in [0, n),
  /// applied for j ascending in [0, m): m rank-1 updates of a four-row
  /// block — the elimination tile of GE. Each element takes the same
  /// multiplies and subtracts, in the same order, as m separate one-pivot
  /// passes; a vector path may keep the rows in registers across j, so a
  /// row is loaded and stored once per call rather than once per pivot.
  /// With m = 1 it is one pivot's update. Every factor is applied, zeros
  /// included. factors[r] points at m doubles.
  void (*rank1_update4)(const double* const* xs, std::size_t m,
                        double* const* rows, const double* const* factors,
                        std::size_t n);

  /// Four-row matmul tile over a packed B panel (row stride nc):
  ///   c_rows[r][j] += a_rows[r][k] * panel[k * nc + j]
  /// accumulated for k ascending in [0, kc) — exactly the per-element order
  /// of the reference i-k-j product, so blocked and naive results match
  /// bit-for-bit.
  void (*mm_tile4)(const double* const* a_rows, const double* panel,
                   std::size_t kc, std::size_t nc, double* const* c_rows);
};

/// The process-wide table for active_isa().
const KernelOps& ops();

/// The scalar reference table (always available).
const KernelOps& scalar_ops();

/// The AVX2 table, or nullptr when unsupported on this CPU or not compiled
/// in. Lets tests compare implementations directly regardless of the
/// process-wide selection.
const KernelOps* avx2_ops();

}  // namespace hetscale::kernels
