// Cluster upgrade planner — the paper's Definition 4 lists three ways to
// grow a system: "increasing nodes, increasing the number of processors in
// one or more nodes, or upgrading to more powerful nodes". Given a fixed
// starting system, this example evaluates all three upgrade strategies for
// the GE workload and ranks them by isospeed-efficiency scalability: which
// upgrade lets you keep your efficiency with the *least* problem growth?
#include <iostream>
#include <memory>
#include <vector>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/scal/iso_solver.hpp"
#include "hetscale/scal/metrics.hpp"
#include "hetscale/support/table.hpp"

namespace {

using namespace hetscale;

std::unique_ptr<scal::ClusterCombination> make_combo(
    std::string name, machine::Cluster cluster) {
  scal::ClusterCombination::Config config;
  config.cluster = std::move(cluster);
  config.with_data = false;
  return std::make_unique<scal::ClusterCombination>(
      std::move(name), std::move(config), scal::ge_algo());
}

}  // namespace

int main() {
  constexpr double kTargetEs = 0.3;

  // Baseline: server (2 CPUs) + 3 SunBlades.
  machine::Cluster base;
  base.add_node("server", machine::sunwulf::server_spec(), 2);
  for (int i = 0; i < 3; ++i) {
    base.add_node("blade-" + std::to_string(i),
                  machine::sunwulf::sunblade_spec());
  }
  auto baseline = make_combo("baseline", base);

  // Strategy A: add four more SunBlade nodes.
  machine::Cluster more_nodes = base;
  for (int i = 3; i < 7; ++i) {
    more_nodes.add_node("blade-" + std::to_string(i),
                        machine::sunwulf::sunblade_spec());
  }

  // Strategy B: light up two more CPUs on the server node.
  machine::Cluster more_cpus;
  more_cpus.add_node("server", machine::sunwulf::server_spec(), 4);
  for (int i = 0; i < 3; ++i) {
    more_cpus.add_node("blade-" + std::to_string(i),
                       machine::sunwulf::sunblade_spec());
  }

  // Strategy C: replace the SunBlades with SunFire V210s (1 CPU each).
  machine::Cluster upgraded;
  upgraded.add_node("server", machine::sunwulf::server_spec(), 2);
  for (int i = 0; i < 3; ++i) {
    upgraded.add_node("v210-" + std::to_string(i),
                      machine::sunwulf::v210_spec(), 1);
  }

  const auto base_point = scal::required_problem_size(*baseline, kTargetEs);
  std::cout << "Baseline " << base.summary() << ": C = "
            << baseline->marked_speed() / 1e6 << " Mflops, N("
            << kTargetEs << ") = " << base_point.n << "\n\n";

  Table table("Upgrade strategies ranked by isospeed-efficiency scalability");
  table.set_header({"Strategy", "System", "C (Mflops)", "N for E_s=0.3",
                    "psi(base -> upgraded)"});
  struct Row {
    const char* label;
    machine::Cluster cluster;
  };
  for (auto& [label, cluster] :
       std::vector<Row>{{"A: add 4 SunBlades", more_nodes},
                        {"B: +2 server CPUs", more_cpus},
                        {"C: blades -> V210s", upgraded}}) {
    auto combo = make_combo(label, cluster);
    const auto point = scal::required_problem_size(*combo, kTargetEs);
    const double psi = scal::isospeed_efficiency_scalability(
        baseline->marked_speed(), baseline->work(base_point.n),
        combo->marked_speed(), combo->work(point.n));
    table.add_row({label, cluster.summary(),
                   Table::fixed(combo->marked_speed() / 1e6, 1),
                   std::to_string(point.n), Table::fixed(psi, 3)});
  }
  std::cout << table
            << "\nHigher psi = the upgrade preserves efficiency with less "
               "problem growth. Upgrading node speed (C) typically beats "
               "adding nodes for GE: it adds capability without adding "
               "per-step communication partners.\n";
  return 0;
}
