// Multi-parameter marked performance — the paper's stated future work:
// "we plan to extend the single parameter marked speed to multi-parameter
//  marked performance that has several parameters to describe the full
//  capability of a computing system".
//
// Three sustained measures per node, each obtained by *running* a probe
// through the simulator stack (never read out of the specs directly):
//   * compute (flop/s)    — the classic marked speed (suite.hpp),
//   * memory (bytes/s)    — a STREAM-style triad sweep,
//   * network (bytes/s and s) — a point-to-point bandwidth/latency probe.
//
// An ApplicationProfile states how many memory and network bytes an
// application moves per flop; effective_marked_speed() combines the vector
// into the roofline-style effective rate
//     C_eff = 1 / (1/C_f + m_B/C_m + n_B/C_n),
// which degenerates to the classic marked speed for a compute-only profile.
#pragma once

#include "hetscale/machine/cluster.hpp"
#include "hetscale/net/network.hpp"

namespace hetscale::marked {

/// Sustained multi-parameter capability of one node (per CPU for compute).
struct MarkedPerformance {
  double compute_flops = 0.0;    ///< classic marked speed
  double memory_Bps = 0.0;       ///< sustained copy bandwidth
  double network_Bps = 0.0;      ///< sustained p2p bandwidth off-node
  double network_latency_s = 0.0;  ///< per-message one-way latency
};

/// How an application loads each resource, normalized per flop.
struct ApplicationProfile {
  double memory_bytes_per_flop = 0.0;
  double network_bytes_per_flop = 0.0;
};

/// A compute-only profile (effective speed == classic marked speed).
ApplicationProfile compute_bound_profile();

/// Measure the full vector for a node type. The network probe runs two of
/// these nodes on the given network parameters (switched fabric).
MarkedPerformance node_marked_performance(
    const machine::NodeSpec& spec,
    const net::NetworkParams& net_params = {});

/// Roofline-style effective rate of one node under a profile (flop/s).
double effective_marked_speed(const MarkedPerformance& performance,
                              const ApplicationProfile& profile);

}  // namespace hetscale::marked
