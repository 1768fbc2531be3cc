// Ablation — how much of each algorithm's (un)scalability is the network?
//
// (a) Switched vs shared-bus fabric at the paper's operating points.
// (b) Bandwidth and latency sweeps on the 4-node GE system: where does the
//     required problem size blow up?
#include <iostream>

#include "hetscale/run/runner.hpp"
#include "hetscale/scal/iso_solver.hpp"
#include "hetscale/scal/series.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/table.hpp"

namespace {

using namespace hetscale;

void fabric_comparison(run::Runner& runner) {
  Table table("psi per scaling step, switched vs shared bus");
  table.set_header({"Algorithm", "Step", "psi (switched)", "psi (shared bus)"});
  for (bool ge : {true, false}) {
    const double target = ge ? scenarios::kGeTargetEs : scenarios::kMmTargetEs;
    std::vector<std::unique_ptr<scal::Combination>> sw_owned;
    std::vector<std::unique_ptr<scal::Combination>> bus_owned;
    std::vector<scal::Combination*> sw;
    std::vector<scal::Combination*> bus;
    for (int nodes : {2, 4, 8}) {
      if (ge) {
        sw_owned.push_back(
            scenarios::make_ge(nodes, scal::NetworkKind::kSwitched));
        bus_owned.push_back(
            scenarios::make_ge(nodes, scal::NetworkKind::kSharedBus));
      } else {
        sw_owned.push_back(
            scenarios::make_mm(nodes, scal::NetworkKind::kSwitched));
        bus_owned.push_back(
            scenarios::make_mm(nodes, scal::NetworkKind::kSharedBus));
      }
      sw.push_back(sw_owned.back().get());
      bus.push_back(bus_owned.back().get());
    }
    const auto sw_report = scal::scalability_series(sw, target, runner);
    const auto bus_report = scal::scalability_series(bus, target, runner);
    for (std::size_t i = 0; i < sw_report.steps.size(); ++i) {
      table.add_row({ge ? "GE (E_s=0.3)" : "MM (E_s=0.2)",
                     sw_report.steps[i].from + " -> " + sw_report.steps[i].to,
                     Table::fixed(sw_report.steps[i].psi, 4),
                     bus_report.points[i + 1].found
                         ? Table::fixed(bus_report.steps[i].psi, 4)
                         : "unreachable"});
    }
  }
  std::cout << table << '\n';
}

void parameter_sweeps(run::Runner& runner) {
  Table table("Required N for GE E_s = 0.3 on 4 nodes vs network quality");
  table.set_header({"Bandwidth (MB/s)", "Latency (us)", "Required N"});
  for (double mbps : {1.25, 12.5, 125.0}) {
    for (double latency_us : {10.0, 50.0, 500.0}) {
      auto config = scenarios::ge_config(4);
      config.net_params.remote.bandwidth_Bps = mbps * 1e6;
      config.net_params.remote.latency_s = latency_us * 1e-6;
      scal::ClusterCombination combo("GE-4", std::move(config),
                                     scal::ge_algo());
      const auto solved =
          scal::required_problem_size(combo, scenarios::kGeTargetEs, runner);
      table.add_row({Table::num(mbps, 2), Table::num(latency_us, 1),
                     solved.found ? std::to_string(solved.n) : "unreachable"});
    }
  }
  std::cout << table;
  std::cout << "(slower networks demand larger problems to hold the same "
               "speed-efficiency)\n";
}

}  // namespace

int main() {
  std::cout << scenarios::artifact_header(
      "Ablation  Network fabric and parameters",
      "Switched vs shared bus; bandwidth/latency sweeps.");
  run::Runner runner(1);
  fabric_comparison(runner);
  parameter_sweeps(runner);
  return 0;
}
