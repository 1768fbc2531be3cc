// The vmpi suites' cluster: one-CPU "Test" nodes, so one rank per node.
#pragma once

#include <string>

#include "hetscale/machine/cluster.hpp"
#include "hetscale/support/units.hpp"

namespace hetscale::vmpi {

/// `nodes` one-CPU "Test" nodes named n0, n1, ..., each at `mflops`.
inline machine::Cluster test_cluster(int nodes, double mflops = 50.0) {
  machine::Cluster cluster;
  for (int i = 0; i < nodes; ++i) {
    // Appended: GCC 12 reports a false -Wrestrict on "n" + std::string&&.
    std::string name = "n";
    name += std::to_string(i);
    cluster.add_node(name, machine::NodeSpec{"Test", 1, units::mflops(mflops),
                                             1e9, 4e8, {1.0}});
  }
  return cluster;
}

}  // namespace hetscale::vmpi
