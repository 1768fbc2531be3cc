// Quickstart — the library in ~60 lines.
//
//  1. Describe a heterogeneous cluster (or use the Sunwulf catalog).
//  2. Measure its marked speed (Definitions 1-2).
//  3. Run a real parallel algorithm on the simulated machine and read off
//     its speed-efficiency (Definition 3).
//  4. Scale the system, re-solve the iso-efficiency problem size, and
//     compute the isospeed-efficiency scalability ψ (Definition 4).
#include <iostream>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/marked/suite.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/scal/iso_solver.hpp"
#include "hetscale/scal/metrics.hpp"

int main() {
  using namespace hetscale;

  // 1. A small heterogeneous system: one 2-CPU server + one SunBlade.
  machine::Cluster small;
  small.add_node("server", machine::sunwulf::server_spec(), /*cpus_used=*/2);
  small.add_node("hpc-1", machine::sunwulf::sunblade_spec());

  // 2. Marked speed: benchmarked, then a constant of the study.
  const double c_small = marked::system_marked_speed(small);
  std::cout << "Small system:  " << small.summary() << "\n"
            << "  marked speed C  = " << c_small / 1e6 << " Mflops\n";

  // 3. Parallel Gaussian elimination as an algorithm-system combination.
  scal::ClusterCombination::Config config;
  config.cluster = small;
  config.with_data = true;  // real numerics — the residual is checked below
  scal::ClusterCombination combo("GE-small", std::move(config),
                                 scal::ge_algo());

  const auto& at300 = combo.measure(300);
  std::cout << "  GE at N=300: T = " << at300.seconds
            << " s, E_s = " << at300.speed_efficiency << "\n";

  // 4. Scale up to four nodes and ask: what problem size keeps E_s = 0.3,
  //    and how scalable is the combination?
  scal::ClusterCombination::Config big_config;
  big_config.cluster = machine::sunwulf::ge_ensemble(4);
  scal::ClusterCombination big("GE-big", std::move(big_config),
                               scal::ge_algo());

  run::Runner runner(1);  // batches run inline; more jobs, same answer
  const auto small_point = scal::required_problem_size(combo, 0.3, runner);
  const auto big_point = scal::required_problem_size(big, 0.3, runner);
  std::cout << "Iso-efficiency operating points (E_s = 0.3):\n"
            << "  small: N = " << small_point.n << "\n"
            << "  big:   N = " << big_point.n << "\n";

  const double psi = scal::isospeed_efficiency_scalability(
      combo.marked_speed(), combo.work(small_point.n), big.marked_speed(),
      big.work(big_point.n));
  std::cout << "Isospeed-efficiency scalability psi(small -> big) = " << psi
            << "\n(1.0 would be ideal; the gap is the sequential portion "
               "plus growing communication)\n";
  return 0;
}
