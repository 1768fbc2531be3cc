// Capacity and profiles — planning with the extended metrics.
//
// Two questions a cluster owner actually asks, answered with the library's
// future-work extensions:
//  1. "How far can I scale before memory, not speed, is the wall?"
//     (memory-bounded iso-solving, scal/capacity.hpp)
//  2. "Which node should I buy for MY application?" (multi-parameter
//     marked performance + application profiles, marked/performance.hpp)
#include <iostream>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/marked/performance.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/scal/capacity.hpp"
#include "hetscale/support/table.hpp"

int main() {
  using namespace hetscale;

  // ---- 1. The memory wall ----
  std::cout << "Q1: scaling GE at E_s = 0.3 on 128 MB SunBlades only\n";
  run::Runner runner(1);
  Table wall;
  wall.set_header({"SunBlades", "N needed", "N that fits", "verdict"});
  for (int nodes : {4, 16, 32}) {
    scal::ClusterCombination::Config config;
    config.cluster = machine::sunwulf::homogeneous_ensemble(nodes);
    config.with_data = false;
    scal::ClusterCombination combo("blades", std::move(config),
                                   scal::ge_algo());
    const auto bounded = scal::memory_bounded_required_size(
        combo, 0.3, scal::ge_footprint(), runner);
    wall.add_row({std::to_string(nodes),
                  bounded.solve.found ? std::to_string(bounded.solve.n)
                                      : "more than fits",
                  std::to_string(bounded.n_limit),
                  bounded.memory_bound ? "MEMORY-BOUND" : "ok"});
  }
  std::cout << wall
            << "=> past ~16 blades the iso-efficiency problem no longer fits"
               " on the root; adding a single large-memory server node is"
               " worth more than more blades.\n\n";

  // ---- 2. Node choice by application profile ----
  std::cout << "Q2: SunBlade vs SunFire V210 for two applications\n";
  const auto blade =
      marked::node_marked_performance(machine::sunwulf::sunblade_spec());
  const auto v210 =
      marked::node_marked_performance(machine::sunwulf::v210_spec());

  marked::ApplicationProfile dense;  // compute-bound (e.g. MM)
  marked::ApplicationProfile stencil;
  stencil.memory_bytes_per_flop = 10.0;  // streaming grid sweeps

  Table choice;
  choice.set_header(
      {"profile", "SunBlade eff. Mflops", "V210 eff. Mflops", "V210 / blade"});
  for (const auto& [label, profile] :
       {std::pair{"dense compute", dense}, std::pair{"stencil", stencil}}) {
    const double b = marked::effective_marked_speed(blade, profile);
    const double v = marked::effective_marked_speed(v210, profile);
    choice.add_row({label, Table::fixed(b / 1e6, 1), Table::fixed(v / 1e6, 1),
                    Table::fixed(v / b, 2)});
  }
  std::cout << choice
            << "=> the V210's advantage is 2x on compute-bound work but "
               "bigger on memory-bound work — a single marked speed would "
               "hide that (the paper's future-work motivation).\n";
  return 0;
}
