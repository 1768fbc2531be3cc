// Ablation — what if Sunwulf had a modern MPI?
//
// The paper measured flat, Θ(p) collectives (T_bcast ≈ 0.23·p ms). This
// ablation re-runs the GE ladder under the logarithmic tree family
// (binomial bcast, combining-tree barrier, ...: what today's MPIs do) and
// compares required problem sizes and ψ: how much of GE's limited
// scalability was the collective algorithm?
#include <iostream>
#include <string>
#include <utility>

#include "common.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/scal/iso_solver.hpp"
#include "hetscale/scal/metrics.hpp"

int main() {
  using namespace hetscale;
  bench::print_header(
      "Ablation  Collective algorithms (paper-era flat family vs tree "
      "family)",
      "GE ladder at E_s = 0.3 under the paper's flat-tree MPI vs a "
      "tree-collective one.");

  const vmpi::CollectiveTuning families[2] = {
      vmpi::CollectiveTuning::legacy_flat(), vmpi::CollectiveTuning::tree()};
  Table table;
  table.set_header({"Nodes", "N (flat)", "N (tree)", "psi step (flat)",
                    "psi step (tree)"});
  double prev_c[2] = {0, 0};
  double prev_w[2] = {0, 0};
  run::Runner runner(1);
  for (int nodes : {2, 4, 8, 16}) {
    std::string n[2];
    std::string psi[2] = {"-", "-"};
    for (int v = 0; v < 2; ++v) {
      auto config = bench::ge_config(nodes);
      config.tuning = families[v];
      scal::ClusterCombination ge(v == 0 ? "flat" : "tree", std::move(config),
                                  scal::ge_algo());
      const auto point =
          scal::required_problem_size(ge, bench::kGeTargetEs, runner);
      const double c = ge.marked_speed();
      const double w = ge.work(point.n);
      n[v] = std::to_string(point.n);
      if (prev_c[v] > 0) {
        psi[v] = Table::fixed(
            scal::isospeed_efficiency_scalability(prev_c[v], prev_w[v], c, w),
            3);
      }
      prev_c[v] = c;
      prev_w[v] = w;
    }
    table.add_row({std::to_string(nodes), n[0], n[1], psi[0], psi[1]});
  }
  std::cout << table;
  std::cout << "(tree collectives shrink the required problem sizes and "
               "lift psi — a large share of GE's 2005 scalability ceiling "
               "was the flat MPI, not the algorithm)\n";
  return 0;
}
