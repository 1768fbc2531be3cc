// Ablation — pipelined GE (communication/computation overlap).
//
// The paper's GE broadcasts each pivot while every process waits, then
// synchronizes on a barrier. The pipelined (lookahead-1) variant fires the
// next pivot asynchronously while the current step's eliminations run.
// Same arithmetic, same W(N) — how much scalability was left on the table?
#include <iostream>

#include "common.hpp"
#include "hetscale/algos/ge.hpp"
#include "hetscale/scal/iso_solver.hpp"
#include "hetscale/scal/metrics.hpp"

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
  bench::print_header(
      "Ablation  Pipelined GE (overlapped pivot distribution)",
      "Paper's synchronous GE vs lookahead-1 pipelining, E_s = 0.3.");

  Table table;
  table.set_header({"Nodes", "N (paper)", "N (pipelined)",
                    "psi step (paper)", "psi step (pipelined)"});
  double prev_c[2] = {0, 0};
  double prev_w[2] = {0, 0};
  for (int nodes : {2, 4, 8, 16}) {
    scal::ClusterCombination paper("paper", bench::ge_config(nodes),
                                   scal::ge_algo());
    scal::ClusterCombination pipelined("pipelined", bench::ge_config(nodes),
                                       pipelined_ge_algo());
    const auto paper_point =
        scal::required_problem_size(paper, bench::kGeTargetEs);
    const auto pipe_point =
        scal::required_problem_size(pipelined, bench::kGeTargetEs);
    std::string psi[2] = {"-", "-"};
    const double c[2] = {paper.marked_speed(), pipelined.marked_speed()};
    const double w[2] = {paper.work(paper_point.n),
                         pipelined.work(pipe_point.n)};
    for (int v = 0; v < 2; ++v) {
      if (prev_c[v] > 0) {
        psi[v] = Table::fixed(scal::isospeed_efficiency_scalability(
                                  prev_c[v], prev_w[v], c[v], w[v]),
                              3);
      }
      prev_c[v] = c[v];
      prev_w[v] = w[v];
    }
    table.add_row({std::to_string(nodes), std::to_string(paper_point.n),
                   std::to_string(pipe_point.n), psi[0], psi[1]});
  }
  std::cout << table;
  std::cout << "(overlap + no barrier shrink the iso-efficiency problem "
               "sizes; combined with binomial collectives — see "
               "ablation_collectives — most of GE's scalability gap to MM "
               "was implementation, not algorithm)\n";
  return 0;
}
