// Memory-capacity-bounded scalability — connecting the isospeed-efficiency
// metric to Sun & Ni's memory-bounded speedup (paper ref [9]).
//
// Holding E_s constant requires *growing the problem*; real nodes have
// finite memory, so at some system size the required problem no longer
// fits and the combination becomes memory-bound at that efficiency. This
// module computes the largest feasible problem size from per-rank footprint
// models and clamps the iso-solver to it.
#pragma once

#include <cstdint>
#include <functional>

#include "hetscale/machine/cluster.hpp"
#include "hetscale/scal/iso_solver.hpp"

namespace hetscale::scal {

/// Bytes rank `rank` (of `p`) needs at problem size n.
using FootprintFn =
    std::function<double(std::int64_t n, int rank, int p)>;

/// Footprint of the parallel GE in algos/: process 0 holds the full system
/// twice (original copy for the residual + collected triangular form);
/// workers hold their ~1/p row share.
FootprintFn ge_footprint();

/// Largest n (up to n_hi) whose footprint fits on every rank of the
/// cluster, using `usable_fraction` of each node's installed memory
/// (shared equally by the node's participating CPUs). Returns 0 if even
/// n = 1 does not fit.
std::int64_t max_feasible_size(const machine::Cluster& cluster,
                               const FootprintFn& footprint,
                               double usable_fraction = 0.8,
                               std::int64_t n_hi = 1 << 22);

struct BoundedSolveResult {
  IsoSolveResult solve;
  std::int64_t n_limit = 0;   ///< largest problem that fits
  bool memory_bound = false;  ///< target unreachable within n_limit
};

/// The iso-solver with the search ceiling clamped by memory capacity: if
/// the target efficiency needs a problem larger than fits, the combination
/// is memory-bound at that efficiency (and `solve.found` is false).
BoundedSolveResult memory_bounded_required_size(
    ClusterCombination& combination, double target_es,
    const FootprintFn& footprint, run::Runner& runner,
    IsoSolveOptions options = {});

}  // namespace hetscale::scal
