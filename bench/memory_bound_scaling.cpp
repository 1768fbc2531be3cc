// Memory-bounded scalability — the Sun & Ni connection (paper ref [9]).
//
// Holding E_s constant needs growing problems; 128 MB SunBlades cannot grow
// forever. On all-SunBlade ensembles, GE's root rank must hold the full
// system, so past some ensemble size the E_s = 0.3 operating point stops
// fitting: the combination is memory-bound at that efficiency. The paper's
// mixed ensembles dodge this because the 4 GB server hosts rank 0 —
// heterogeneity as a capacity feature, not just a speed mix.
#include <iostream>

#include "hetscale/run/runner.hpp"
#include "hetscale/scal/capacity.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/table.hpp"

int main() {
  using namespace hetscale;
  std::cout << scenarios::artifact_header(
      "Memory-bounded scaling  GE at E_s = 0.3 on all-SunBlade systems",
      "Required N vs the largest N that fits (root holds the full matrix "
      "in 128 MB).");

  run::Runner runner(1);
  Table table;
  table.set_header({"SunBlades", "N required", "N that fits", "verdict"});
  for (int nodes : {2, 4, 8, 16, 32}) {
    scal::ClusterCombination::Config config;
    config.cluster = machine::sunwulf::homogeneous_ensemble(nodes);
    config.with_data = false;
    scal::ClusterCombination combo("blades-" + std::to_string(nodes),
                                   std::move(config), scal::ge_algo());
    const auto result = scal::memory_bounded_required_size(
        combo, scenarios::kGeTargetEs, scal::ge_footprint(), runner);
    table.add_row(
        {std::to_string(nodes),
         result.solve.found ? std::to_string(result.solve.n) : "> fits",
         std::to_string(result.n_limit),
         result.memory_bound ? "MEMORY-BOUND" : "ok"});
  }
  std::cout << table << '\n';

  // The paper's mixed ensembles for contrast.
  Table mixed("Same question on the paper's mixed ensembles (server root)");
  mixed.set_header({"Nodes", "N required", "N that fits", "verdict"});
  for (int nodes : {8, 32}) {
    scal::ClusterCombination::Config config;
    config.cluster = machine::sunwulf::ge_ensemble(nodes);
    config.with_data = false;
    scal::ClusterCombination combo("ge-" + std::to_string(nodes),
                                   std::move(config), scal::ge_algo());
    const auto result = scal::memory_bounded_required_size(
        combo, scenarios::kGeTargetEs, scal::ge_footprint(), runner);
    mixed.add_row(
        {std::to_string(nodes),
         result.solve.found ? std::to_string(result.solve.n) : "> fits",
         std::to_string(result.n_limit),
         result.memory_bound ? "MEMORY-BOUND" : "ok"});
  }
  std::cout << mixed;
  return 0;
}
