#include "hetscale/machine/sunwulf.hpp"

#include <string>

#include "hetscale/support/error.hpp"
#include "hetscale/support/units.hpp"

namespace hetscale::machine::sunwulf {

using units::mflops;

namespace {
constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;
constexpr double kMiB = 1024.0 * 1024.0;
}  // namespace

NodeSpec server_spec() {
  return NodeSpec{
      .model = "SunFire server",
      .cpus = 4,
      .cpu_rate_flops = mflops(26.0),
      .memory_bytes = 4.0 * kGiB,
      .memory_bandwidth_Bps = 450e6,
      // Per-kernel sustained-rate bias, order marked::kKernelNames
      // (EP, LU, FT, BT, MG): EP is compute-bound (above average), FT is
      // memory-bound (below average) — as on the real machines.
      .benchmark_bias = {1.06, 0.97, 0.91, 1.02, 1.04},
  };
}

NodeSpec sunblade_spec() {
  return NodeSpec{
      .model = "SunBlade",
      .cpus = 1,
      .cpu_rate_flops = mflops(27.5),
      .memory_bytes = 128.0 * kMiB,
      .memory_bandwidth_Bps = 250e6,
      .benchmark_bias = {1.04, 0.98, 0.89, 1.03, 1.06},
  };
}

NodeSpec v210_spec() {
  return NodeSpec{
      .model = "SunFire V210",
      .cpus = 2,
      .cpu_rate_flops = mflops(55.0),
      .memory_bytes = 2.0 * kGiB,
      .memory_bandwidth_Bps = 900e6,
      .benchmark_bias = {1.05, 0.99, 0.93, 1.01, 1.02},
  };
}

namespace {
/// Reject an ensemble larger than kMaxClusterNodes before any node is built.
void require_node_bound(int total_nodes, const std::string& what) {
  HETSCALE_REQUIRE(total_nodes <= kMaxClusterNodes,
                   what + " of " + std::to_string(total_nodes) +
                       " nodes; at most " + std::to_string(kMaxClusterNodes) +
                       " are allowed");
}
}  // namespace

Cluster ge_ensemble(int total_nodes) {
  HETSCALE_REQUIRE(total_nodes >= 2, "GE ensemble needs at least 2 nodes");
  require_node_bound(total_nodes, "GE ensemble");
  Cluster cluster;
  cluster.add_node("sunwulf", server_spec(), /*cpus_used=*/2);
  for (int i = 1; i < total_nodes; ++i) {
    cluster.add_node("hpc-" + std::to_string(39 + i), sunblade_spec());
  }
  return cluster;
}

Cluster mm_ensemble(int total_nodes) {
  HETSCALE_REQUIRE(total_nodes >= 2, "MM ensemble needs at least 2 nodes");
  require_node_bound(total_nodes, "MM ensemble");
  Cluster cluster;
  cluster.add_node("sunwulf", server_spec(), /*cpus_used=*/1);
  // Of the remaining nodes, the first half (rounded down) are SunBlades and
  // the rest SunFire V210s using one CPU each, per the paper's examples
  // (8 nodes = 1 server + 3 SunBlades + 4 V210s).
  const int rest = total_nodes - 1;
  const int blades = rest / 2;
  for (int i = 0; i < blades; ++i) {
    cluster.add_node("hpc-" + std::to_string(1 + i), sunblade_spec());
  }
  for (int i = 0; i < rest - blades; ++i) {
    cluster.add_node("hpc-" + std::to_string(65 + i), v210_spec(),
                     /*cpus_used=*/1);
  }
  return cluster;
}

Cluster homogeneous_ensemble(int total_nodes) {
  HETSCALE_REQUIRE(total_nodes >= 1, "ensemble needs at least 1 node");
  require_node_bound(total_nodes, "homogeneous ensemble");
  Cluster cluster;
  for (int i = 0; i < total_nodes; ++i) {
    cluster.add_node("hpc-" + std::to_string(1 + i), sunblade_spec());
  }
  return cluster;
}

}  // namespace hetscale::machine::sunwulf
