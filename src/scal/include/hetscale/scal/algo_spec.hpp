// Algorithm descriptors — the algorithm half of a combination.
//
// A combination (Definition 4) pairs an algorithm with a system. The system
// is plain data (ClusterCombination::Config); so is the algorithm: an
// AlgoSpec says what it is called in the measurement store, how much work
// it does at size N, and how to run it once on a simulated machine.
//
// The registry names every built-in algorithm with its default parameters,
// the paper ensemble ladder it runs on, and its default isospeed target.
// It is the CLI's `--algo` vocabulary; adding an algorithm means one
// registry entry plus its kernel under algos/.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "hetscale/algos/sort.hpp"
#include "hetscale/algos/spmv.hpp"
#include "hetscale/machine/cluster.hpp"
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
AlgoSpec spmv_algo(std::int64_t sweeps = 50,
                   algos::SpmvDistribution distribution =
                       algos::SpmvDistribution::kHeterogeneousBlock);

/// One named algorithm of the registry.
struct AlgoEntry {
  std::string name;  ///< the CLI's --algo spelling
  AlgoSpec spec;     ///< with the default parameters
  /// The paper ensemble ladder (machine::sunwulf::ge_ensemble or
  /// mm_ensemble) that `series` and `predict` put the algorithm on.
  machine::Cluster (*ensemble)(int nodes);
  double target_es;  ///< default isospeed-efficiency target
};

/// Every built-in algorithm, in --algo listing order.
const std::vector<AlgoEntry>& algo_registry();

/// The entry named `name`; throws PreconditionError listing the registered
/// names when there is none.
const AlgoEntry& find_algo(std::string_view name);

/// The registered names, comma-separated.
std::string algo_names();

}  // namespace hetscale::scal
