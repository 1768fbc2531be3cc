// The Sunwulf catalog — a model of the paper's testbed.
//
// Sunwulf (SCS lab, Illinois Institute of Technology) was one SunFire server
// node (4 x 480 MHz CPUs, 4 GB), 64 SunBlade compute nodes (1 x 500 MHz,
// 128 MB), and 20 SunFire V210 nodes (2 x 1 GHz, 2 GB) on 100 Mb Ethernet.
// Delivered per-CPU rates are calibration constants (DESIGN.md §6.4): they
// are of the order real NPB kernels sustained on those CPUs and are chosen
// so the paper's operating points (e.g. E_s = 0.3 near N ≈ 300 on two nodes)
// fall inside the simulated range. Absolute agreement with the paper is not
// claimed — shape agreement is (EXPERIMENTS.md).
#pragma once

#include "hetscale/machine/cluster.hpp"

namespace hetscale::machine::sunwulf {

/// SunFire server node ("sunwulf"): 4 x 480 MHz, 4 GB.
NodeSpec server_spec();

/// SunBlade compute node (hpc-1..hpc-64): 1 x 500 MHz, 128 MB.
NodeSpec sunblade_spec();

/// SunFire V210 compute node (hpc-65..hpc-84): 2 x 1 GHz, 2 GB.
NodeSpec v210_spec();

/// The paper's GE ensembles (§4.4.1): the server node using two CPUs plus
/// (total_nodes - 1) SunBlades. total_nodes in {2, 4, 8, 16, 32}; any
/// total_nodes in [2, kMaxClusterNodes] is accepted.
Cluster ge_ensemble(int total_nodes);

/// The paper's MM ensembles (§4.4.2): one server node (one CPU), and of the
/// remaining nodes half SunBlades, half SunFire V210s (one CPU each);
/// e.g. 8 nodes = server + 3 SunBlades + 4 V210s. total_nodes in
/// [2, kMaxClusterNodes].
Cluster mm_ensemble(int total_nodes);

/// A homogeneous ensemble of `total_nodes` SunBlades — used to demonstrate
/// that isospeed-efficiency collapses to classic isospeed (paper §3.3).
/// total_nodes in [1, kMaxClusterNodes].
Cluster homogeneous_ensemble(int total_nodes);

}  // namespace hetscale::machine::sunwulf
