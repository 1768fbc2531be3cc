// Parallel Jacobi 2-D stencil — a third algorithm-machine combination.
//
// Not in the paper's evaluation; included as the generality exercise its
// conclusion calls for ("appropriate for a general scalable computing
// environment"). Communication is nearest-neighbour ghost-row exchange, a
// very different pattern from GE's broadcasts and MM's root-centric
// distribution, so it stresses the metric (and the simulator) differently.
//
// The grid is N x N, partitioned into contiguous row bands proportional to
// marked speeds; each sweep updates interior cells from the 4-neighbour
// average and the fixed boundary, costing kernels::jacobi_sweep_flops.
#pragma once

#include <cstdint>
#include <vector>

#include "hetscale/vmpi/machine.hpp"

namespace hetscale::algos {

struct JacobiOptions {
  std::int64_t n = 0;          ///< grid side N (required, >= 3)
  std::int64_t sweeps = 10;    ///< fixed sweep count (no convergence test)
  bool with_data = true;
  std::uint64_t seed = 44;
  std::vector<double> speeds;  ///< per-rank marked speeds; empty = measure
};

struct JacobiResult {
  vmpi::RunResult run;
  std::int64_t n = 0;
  std::int64_t sweeps = 0;
  double work_flops = 0.0;     ///< jacobi_workload(n, sweeps)
  double charged_flops = 0.0;
  /// Only populated when with_data: the final grid, row-major N x N.
  std::vector<double> grid;
};

/// W(N, sweeps) — total flops of the sweep phase.
double jacobi_workload(std::int64_t n, std::int64_t sweeps);

/// The smallest grid the solver takes on `ranks` ranks: p + 2, so every
/// rank owns at least one interior row between the two boundary rows.
std::int64_t jacobi_min_n(int ranks);

/// Run the parallel Jacobi solver on (and consuming) the given machine.
/// Needs options.n >= jacobi_min_n(world size).
JacobiResult run_parallel_jacobi(vmpi::Machine& machine,
                                 const JacobiOptions& options);

/// Sequential reference for correctness tests: the same sweeps on one node.
std::vector<double> jacobi_reference(std::int64_t n, std::int64_t sweeps,
                                     std::uint64_t seed);

}  // namespace hetscale::algos
