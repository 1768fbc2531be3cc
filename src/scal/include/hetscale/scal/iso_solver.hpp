// The iso-solver: "the required matrix size to obtain a specified
// speed-efficiency" (paper §4.4, Fig. 1 / Table 3).
//
// Two methods, as in §3.5:
//   * kDirectSearch — measure the combination directly; since E_s(N) is
//     non-decreasing in N over the usable range, a doubling bracket plus
//     integer bisection finds the smallest N with E_s(N) >= target in
//     O(log N) simulated runs.
//   * kTrendLine — the paper's method: sample E_s at a handful of sizes,
//     fit a polynomial trend line, read the target crossing off the trend,
//     then verify by measuring at the read-off size (the "light gray dot"
//     of Fig. 1).
//
// Both submit their measurements as batches on a run::Runner: the
// trend-line ladder is sampled as one batch, and direct-search refinement
// is *speculative* bisection — each wave measures the next levels of the
// bisection decision tree as one batch, then replays the sequential
// decisions, so the found N and measured E_s are those of plain bisection on
// any E_s(n). At jobs 1 a wave is the one midpoint plain bisection would
// visit, so the solve simulates exactly its sizes. The doubling bracket
// itself stays sequential — simulation cost grows superlinearly with N, so
// speculating doublings ahead would cost more than it hides.
#pragma once

#include <cstdint>

#include "hetscale/scal/combination.hpp"

namespace hetscale::scal {

struct IsoSolveOptions {
  enum class Method { kDirectSearch, kTrendLine };
  Method method = Method::kDirectSearch;

  /// Search floor; the solver raises it (and trend_n_lo) to the
  /// combination's min_n(), so no probe runs below the smallest valid size.
  std::int64_t n_min = 4;
  std::int64_t n_max = 1 << 22;       ///< search ceiling (fail beyond)

  // kTrendLine parameters:
  std::size_t trend_degree = 3;
  std::size_t trend_samples = 10;     ///< geometric ladder of sample sizes
  std::int64_t trend_n_lo = 32;       ///< sampling window
  std::int64_t trend_n_hi = 2048;
};

struct IsoSolveResult {
  bool found = false;
  std::int64_t n = -1;        ///< required problem size
  double achieved_es = 0.0;   ///< measured E_s at n (the verification run)
  double target_es = 0.0;
};

/// Smallest problem size at which the combination achieves the target
/// speed-efficiency. found == false if the target is unreachable below
/// options.n_max (the combination is then *unscalable* at that efficiency).
IsoSolveResult required_problem_size(Combination& combination,
                                     double target_es, run::Runner& runner,
                                     const IsoSolveOptions& options = {});

}  // namespace hetscale::scal
