// Row-level computational kernels shared by the parallel algorithms.
//
// These do the *real* arithmetic; the corresponding flop counts that get
// charged to virtual time live in flops.hpp — keeping the two adjacent makes
// the accounting auditable.
//
// axpy, rank1_update and eliminate_block route through the runtime-
// dispatched kernel table (dispatch.hpp): an AVX2 path when the CPU has
// one, the scalar reference otherwise, overridable via HETSCALE_KERNEL.
// Every path produces bit-identical results — see dispatch.hpp for the
// contract. dot and scale stay scalar: a vectorized dot reassociates its
// reduction, and scale is never hot enough to matter.
#pragma once

#include <cstddef>
#include <span>

namespace hetscale::kernels {

/// y += a * x. Requires equal lengths. Dispatched (scalar or AVX2); every
/// path computes y[i] += a * x[i] element-wise, so results are bit-identical
/// across ISAs.
void axpy(double a, std::span<const double> x, std::span<double> y);

/// Fused rank-1 updates: rows[k][c] -= factors[k][j] * xs[j][c] for every
/// target row k and column c in [0, n), applied for pivots j ascending in
/// [0, xs.size()). Each xs[j] and rows[k] points at n doubles, each
/// factors[k] at xs.size(). A zero factor skips its (row, pivot) pair, as
/// eliminate_row skips a zero factor. Rows whose factors are all non-zero
/// go four at a time through the dispatched four-row kernel, which loads
/// and stores each row once for all the pivots; any other row takes one
/// axpy(-factor) per non-zero pair. Per element both are the multiplies and
/// subtracts of separate one-pivot passes, in pivot order.
void rank1_update(std::span<const double* const> xs, std::size_t n,
                  std::span<double* const> rows,
                  std::span<const double* const> factors);

/// Block Gaussian elimination: applies m = pivots.size() normalized pivot
/// rows, in order, to every target row — bit-identical to m successive
/// eliminate_row calls with leads 0, 1, ..., m - 1 (rhs folded in as the
/// last column). rows[k] points at `width` doubles; pivots[j] points at
/// pivot j's lead, so pivot j's column c is pivots[j][c - j]. The factor of
/// pivot j is the target's column j after the earlier pivots' updates, so
/// the m head columns are eliminated one pivot at a time; the tail columns
/// [m, width) then take all m pivots in one rank1_update. A zero factor
/// skips that (row, pivot) pair. Requires m <= width.
void eliminate_block(std::span<const double* const> pivots,
                     std::span<double* const> rows, std::size_t width);

/// Dot product. Requires equal lengths.
double dot(std::span<const double> x, std::span<const double> y);

/// x *= a.
void scale(double a, std::span<double> x);

/// One Gaussian-elimination row update: given the (already normalized, unit
/// diagonal) pivot row and a target row, subtract factor * pivot from the
/// target starting at column `lead`, where factor = row[lead]; also updates
/// the target's right-hand-side entry given the pivot's. A zero factor
/// leaves the row untouched. Returns the elimination factor. This is the
/// scalar reference that eliminate_block reproduces bit for bit.
double eliminate_row(std::span<const double> pivot_row, double pivot_rhs,
                     std::span<double> row, double& rhs, std::size_t lead);

}  // namespace hetscale::kernels
