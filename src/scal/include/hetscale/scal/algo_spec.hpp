// Algorithm descriptors — the algorithm half of a combination.
//
// A combination (Definition 4) pairs an algorithm with a system. The system
// is plain data (ClusterCombination::Config); so is the algorithm: an
// AlgoSpec says what it is called in the measurement store, how much work
// it does at size N, and how to run it once on a simulated machine.
//
// scenarios/algo_registry.hpp names every built-in algorithm by its
// default-parameter spec.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hetscale/algos/sort.hpp"
#include "hetscale/algos/spmv.hpp"
#include "hetscale/vmpi/machine.hpp"

namespace hetscale::scal {

/// What one simulated run of an algorithm reports.
struct AlgoRun {
  double work_flops = 0.0;
  double seconds = 0.0;
  double overhead_s = 0.0;  ///< critical-path T_o (see vmpi::RunResult)
};

struct AlgoSpec {
  /// Everything about the algorithm that determines a run, e.g.
  /// "jacobi:sweeps=50". Folded into the MeasurementStore fingerprint, so
  /// it must change whenever the timing does — and never otherwise.
  std::string key;

  /// W(N) — the workload polynomial.
  std::function<double(std::int64_t n)> work;

  /// Run once on a fresh single-shot machine with the given per-rank
  /// marked speeds. May be called on several worker threads at once, each
  /// with its own machine.
  std::function<AlgoRun(vmpi::Machine& machine, std::int64_t n,
                        const std::vector<double>& speeds, bool with_data)>
      run;

  /// The smallest N a run on `ranks` ranks accepts: 1 unless the algorithm
  /// says otherwise (sort: p^2, Jacobi: p + 2).
  std::function<std::int64_t(int ranks)> min_n = [](int) {
    return std::int64_t{1};
  };
};

AlgoSpec ge_algo();
AlgoSpec mm_algo();
/// Always runs on real keys — its load balance is data-dependent.
AlgoSpec sort_algo(
    algos::SortSplitters splitters = algos::SortSplitters::kSpeedProportional);
AlgoSpec jacobi_algo(std::int64_t sweeps);
/// Same workload polynomial as MM; only the communication pattern differs.
AlgoSpec summa_algo(std::int64_t tile = 64);
/// W is the useful GE workload: the pivot search and redundant panel
/// reconstruction are charged overhead, so E_s sits below pivot-free GE.
AlgoSpec ge_pivot_algo(std::int64_t panel = 32);
/// W = sweeps * 2 * nnz(N).
AlgoSpec spmv_algo(std::int64_t sweeps,
                   algos::SpmvDistribution distribution =
                       algos::SpmvDistribution::kHeterogeneousBlock);

}  // namespace hetscale::scal
