// Panel-blocked parallel Gaussian Elimination WITH partial pivoting.
//
// The paper's GE (ge.hpp) avoids pivoting entirely — fine for its random
// diagonally dominant systems, wrong as a general solver and, more to the
// point here, *cheap in communication*: every step is one broadcast. Partial
// pivoting changes the communication pattern qualitatively:
//   * every step begins with a global argmax reduction over column i
//     (a 16-byte gather to the pivot slot's owner + the chosen index back),
//   * the winning row is swapped into slot i — a point-to-point exchange of
//     two full rows between the two owners whenever they differ,
//   * only then can the pivot row be normalized and broadcast.
// To keep the extra latencies off the critical path, elimination is
// panel-blocked (HPL-style): within a panel of `panel` columns only the
// panel part of each row is updated eagerly; the trailing parts of the
// panel's pivot rows are broadcast once per panel, every rank reconstructs
// the normalized trailing rows redundantly, and applies the deferred
// updates to its own rows pivot-by-pivot in ascending order.
//
// Numerics: per matrix element the operation sequence is exactly that of
// the unblocked reference numeric::forward_eliminate(Pivoting::kPartial) —
// same pivot choices (strict >, ties to the lowest row), same factors, same
// update order — so the parallel solution is bit-identical to
// numeric::solve_dense(a, b, Pivoting::kPartial) (tested).
//
// Timing-only runs (`with_data = false`) cannot search real data for
// pivots; they draw pivot choices from a seeded SplitMix64 hash instead.
// Virtual time is still fully deterministic, but unlike ge.hpp the
// schedule is a *model* of pivoted GE rather than byte-for-byte the data
// run's schedule (the swap partners differ).
#pragma once

#include <cstdint>
#include <vector>

#include "hetscale/numeric/matrix.hpp"
#include "hetscale/vmpi/machine.hpp"

namespace hetscale::algos {

struct GePivotOptions {
  std::int64_t n = 0;       ///< matrix order N (required, >= 1)
  std::int64_t panel = 32;  ///< panel width in columns (>= 1)
  bool with_data = true;    ///< perform real arithmetic alongside timing
  std::uint64_t seed = 42;  ///< same default system as ge.hpp
  std::vector<double> speeds;  ///< per-rank marked speeds; empty = measure
  /// Optional explicit system (both must be set together); empty means
  /// "generate the same random diagonally dominant system as ge.hpp". Lets
  /// tests feed matrices that *require* pivoting (zero diagonal entries).
  numeric::Matrix system_a;
  std::vector<double> system_b;
};

struct GePivotResult {
  vmpi::RunResult run;
  std::int64_t n = 0;
  double work_flops = 0.0;  ///< W(N) = numeric::ge_workload(n)
  /// Charged flops exceed work_flops: pivot search, and the per-panel
  /// redundant reconstruction of normalized trailing pivot rows on every
  /// rank, are real charged overhead the paper's GE does not pay.
  double charged_flops = 0.0;
  std::int64_t row_swaps = 0;  ///< steps whose pivot was not already in place
  /// Only populated when with_data:
  std::vector<double> solution;
  double residual = 0.0;  ///< ||b - A x||_inf of the parallel solution
};

/// Run pivoted panel-blocked GE on (and consuming) the given single-shot
/// machine.
GePivotResult run_parallel_ge_pivot(vmpi::Machine& machine,
                                    const GePivotOptions& options);

}  // namespace hetscale::algos
