// Ablation — what if Sunwulf had a modern MPI?
//
// The paper measured flat, Θ(p) collectives (T_bcast ≈ 0.23·p ms). This
// ablation re-runs the GE ladder under the logarithmic tree family
// (binomial bcast, combining-tree barrier, ...: what today's MPIs do) and
// compares required problem sizes and ψ: how much of GE's limited
// scalability was the collective algorithm?
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hetscale/run/runner.hpp"
#include "hetscale/scal/series.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/table.hpp"

int main() {
  using namespace hetscale;
  std::cout << scenarios::artifact_header(
      "Ablation  Collective algorithms (paper-era flat family vs tree "
      "family)",
      "GE ladder at E_s = 0.3 under the paper's flat-tree MPI vs a "
      "tree-collective one.");

  const int ladder[] = {2, 4, 8, 16};
  const vmpi::CollectiveTuning families[2] = {
      vmpi::CollectiveTuning::legacy_flat(), vmpi::CollectiveTuning::tree()};
  run::Runner runner(1);
  scal::SeriesReport series[2];
  for (int v = 0; v < 2; ++v) {
    std::vector<std::unique_ptr<scal::ClusterCombination>> owned;
    std::vector<scal::Combination*> rungs;
    for (int nodes : ladder) {
      auto config = scenarios::ge_config(nodes);
      config.tuning = families[v];
      owned.push_back(std::make_unique<scal::ClusterCombination>(
          v == 0 ? "flat" : "tree", std::move(config), scal::ge_algo()));
      rungs.push_back(owned.back().get());
    }
    series[v] =
        scal::scalability_series(rungs, scenarios::kGeTargetEs, runner);
  }

  Table table;
  table.set_header({"Nodes", "N (flat)", "N (tree)", "psi step (flat)",
                    "psi step (tree)"});
  for (std::size_t i = 0; i < std::size(ladder); ++i) {
    const auto psi = [&](int v) {
      return i == 0 ? std::string("-")
                    : Table::fixed(series[v].steps[i - 1].psi, 3);
    };
    table.add_row({std::to_string(ladder[i]),
                   std::to_string(series[0].points[i].n),
                   std::to_string(series[1].points[i].n), psi(0), psi(1)});
  }
  std::cout << table;
  std::cout << "(tree collectives shrink the required problem sizes and "
               "lift psi — a large share of GE's 2005 scalability ceiling "
               "was the flat MPI, not the algorithm)\n";
  return 0;
}
