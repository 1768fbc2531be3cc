// Ablation — heterogeneous vs homogeneous data distribution.
//
// The paper's algorithms distribute data proportionally to marked speeds.
// This ablation quantifies what that buys: MM run with heterogeneous vs
// equal row blocks on the mixed ensembles, and the load-balance quality of
// the distributions themselves.
#include <iostream>

#include "hetscale/algos/mm.hpp"
#include "hetscale/dist/distribution.hpp"
#include "hetscale/marked/suite.hpp"
#include "hetscale/scal/metrics.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/table.hpp"

int main() {
  using namespace hetscale;
  std::cout << scenarios::artifact_header(
      "Ablation  Heterogeneous vs homogeneous distribution",
      "MM on mixed ensembles, rows-by-marked-speed vs equal rows.");

  Table table;
  table.set_header({"Nodes", "N", "T het (s)", "T hom (s)", "speedup",
                    "imbalance het", "imbalance hom"});
  for (int nodes : {2, 4, 8, 16}) {
    const std::int64_t n = 64 * nodes;
    auto run = [&](algos::MmDistribution distribution) {
      auto machine =
          vmpi::Machine::switched(machine::sunwulf::mm_ensemble(nodes));
      algos::MmOptions options;
      options.n = n;
      options.with_data = false;
      options.distribution = distribution;
      return algos::run_parallel_mm(machine, options).run.elapsed;
    };
    const double t_het = run(algos::MmDistribution::kHeterogeneousBlock);
    const double t_hom = run(algos::MmDistribution::kHomogeneousBlock);

    const auto speeds =
        marked::rank_marked_speeds(machine::sunwulf::mm_ensemble(nodes));
    const auto het_counts = dist::het_block_counts(speeds, n);
    const auto hom_counts =
        dist::block_counts(static_cast<int>(speeds.size()), n);
    table.add_row({std::to_string(nodes), std::to_string(n),
                   Table::fixed(t_het, 4), Table::fixed(t_hom, 4),
                   Table::fixed(t_hom / t_het, 3),
                   Table::fixed(dist::imbalance(speeds, het_counts), 3),
                   Table::fixed(dist::imbalance(speeds, hom_counts), 3)});
  }
  std::cout << table;
  std::cout << "(proportional distribution keeps the imbalance near 1.0; "
               "equal blocks stall on the slowest CPUs)\n";
  return 0;
}
