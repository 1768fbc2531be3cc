// Parallel Gaussian Elimination (paper §4.1.1).
//
// The algorithm, exactly as the paper describes it:
//   1. Process 0 distributes matrix A and vector b proportionally to the
//      ranks' marked speeds using a row-based heterogeneous cyclic
//      distribution (Kalinov–Lastovetsky [6]).
//   2. For each step i: the owner of the pivot row normalizes and broadcasts
//      it (two broadcasts — the row and its rhs entry); every rank
//      eliminates its own rows j > i; all ranks synchronize on a barrier.
//   3. Process 0 collects the reduced rows and performs back substitution
//      (the algorithm's sequential portion, α = O(1/N)).
//
// Real data and virtual time are decoupled: with `with_data = false` the
// run charges identical flops and moves identical bytes — virtual timing is
// bit-identical (tested) — but skips the host-side arithmetic, which makes
// large scalability sweeps cheap.
#pragma once

#include <cstdint>
#include <vector>

#include "hetscale/vmpi/machine.hpp"

namespace hetscale::algos {

struct GeOptions {
  std::int64_t n = 0;        ///< matrix order N (required, >= 1)
  bool with_data = true;     ///< perform real arithmetic alongside timing
  std::uint64_t seed = 42;   ///< seed for the random diagonally dominant A
  /// Pipelined (lookahead-1) variant: the owner of row i+1 eliminates that
  /// row first and *asynchronously* sends the next pivot (Comm::isend)
  /// while everyone — itself included — finishes step i's eliminations, so
  /// pivot distribution overlaps computation. No per-step barrier. The
  /// numerics are bit-identical to the paper's algorithm (tested); only
  /// the schedule changes. This is the classic optimization the paper-era
  /// implementation left on the table — `bench/ablation_pipeline`
  /// quantifies what it buys in ψ.
  bool pipelined = false;
  /// Marked speeds per rank driving the data distribution; empty means
  /// "measure them from the machine's cluster" (marked::rank_marked_speeds).
  std::vector<double> speeds;
};

struct GeResult {
  vmpi::RunResult run;
  std::int64_t n = 0;
  double work_flops = 0.0;     ///< W(N) = numeric::ge_workload(n)
  double charged_flops = 0.0;  ///< flops actually charged (== work, tested)
  /// Only populated when with_data:
  std::vector<double> solution;
  double residual = 0.0;  ///< ||b - A x||_inf of the parallel solution
};

/// Run parallel GE on (and consuming) the given single-shot machine.
GeResult run_parallel_ge(vmpi::Machine& machine, const GeOptions& options);

}  // namespace hetscale::algos
