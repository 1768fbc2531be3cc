// Ablation — pipelined GE (communication/computation overlap).
//
// The paper's GE broadcasts each pivot while every process waits, then
// synchronizes on a barrier. The pipelined (lookahead-1) variant fires the
// next pivot asynchronously while the current step's eliminations run.
// Same arithmetic, same W(N) — how much scalability was left on the table?
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "hetscale/algos/ge.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/scal/series.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/table.hpp"

namespace {

using namespace hetscale;

/// The paper's GE with lookahead-1 pipelining. Its key is distinct from
/// plain "ge": pipelining changes the timing, so the two must not share
/// measurement-store entries.
scal::AlgoSpec pipelined_ge_algo() {
  return {"ge:pipelined", scal::ge_algo().work,
          [](vmpi::Machine& machine, std::int64_t n,
             const std::vector<double>& speeds, bool with_data) {
            const auto result = algos::run_parallel_ge(
                machine, {.n = n,
                          .with_data = with_data,
                          .pipelined = true,
                          .speeds = speeds});
            return scal::AlgoRun{result.work_flops, result.run.elapsed,
                                 result.run.overhead_s()};
          }};
}

}  // namespace

int main() {
  std::cout << scenarios::artifact_header(
      "Ablation  Pipelined GE (overlapped pivot distribution)",
      "Paper's synchronous GE vs lookahead-1 pipelining, E_s = 0.3.");

  const int ladder[] = {2, 4, 8, 16};
  const scal::AlgoSpec variants[2] = {scal::ge_algo(), pipelined_ge_algo()};
  run::Runner runner(1);
  scal::SeriesReport series[2];
  for (int v = 0; v < 2; ++v) {
    std::vector<std::unique_ptr<scal::ClusterCombination>> owned;
    std::vector<scal::Combination*> rungs;
    for (int nodes : ladder) {
      owned.push_back(std::make_unique<scal::ClusterCombination>(
          v == 0 ? "paper" : "pipelined", scenarios::ge_config(nodes),
          variants[v]));
      rungs.push_back(owned.back().get());
    }
    series[v] =
        scal::scalability_series(rungs, scenarios::kGeTargetEs, runner);
  }

  Table table;
  table.set_header({"Nodes", "N (paper)", "N (pipelined)",
                    "psi step (paper)", "psi step (pipelined)"});
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
  std::cout << "(overlap + no barrier shrink the iso-efficiency problem "
               "sizes; combined with tree collectives — see "
               "ablation_collectives — most of GE's scalability gap to MM "
               "was implementation, not algorithm)\n";
  return 0;
}
