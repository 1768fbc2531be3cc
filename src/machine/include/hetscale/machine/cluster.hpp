// Hardware model: nodes, processors, and clusters.
//
// The paper's HoHe strategy runs one process per *processor*; a Cluster
// therefore enumerates processors (node, cpu) in a stable order, and the
// vmpi runtime assigns rank r to the r-th processor. Heterogeneity lives in
// NodeSpec::cpu_rate_flops — every CPU of a node delivers that sustained
// compute rate on the dense kernels used here.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace hetscale::machine {

/// The most nodes a cluster description or a catalog ensemble builder
/// (sunwulf.hpp) accepts: 16 times the 4096-node top rung of the large-p
/// scenario. Both check it before building any node.
inline constexpr int kMaxClusterNodes = 65536;

/// A node model (one row of the paper's hardware description).
struct NodeSpec {
  std::string model;           ///< e.g. "SunFire V210"
  int cpus = 1;                ///< CPUs physically present
  double cpu_rate_flops = 0;   ///< delivered flop/s per CPU on dense kernels
  double memory_bytes = 0;     ///< installed RAM
  double memory_bandwidth_Bps = 4e8;  ///< sustained copy bandwidth
  /// Per-benchmark efficiency of this node relative to cpu_rate_flops; the
  /// marked-speed suite multiplies these in so that "measured sustained
  /// speed" differs benchmark-to-benchmark, as with the real NPB suite.
  /// Order matches marked::kKernelNames.
  std::vector<double> benchmark_bias{1.0};
};

/// A node instance inside a cluster.
struct Node {
  std::string name;   ///< e.g. "hpc-40"
  NodeSpec spec;
  int cpus_used = 0;  ///< CPUs participating in the computation (<= spec.cpus)
};

/// One participating CPU — the unit the HoHe strategy maps a process onto.
struct Processor {
  int node = 0;             ///< index into Cluster::nodes()
  int cpu = 0;              ///< CPU index within the node
  double rate_flops = 0.0;  ///< delivered compute rate of this CPU
};

class Cluster {
 public:
  Cluster() = default;

  /// Append a node using `cpus_used` of its CPUs (all of them by default).
  /// Returns the node index.
  int add_node(std::string name, NodeSpec spec, int cpus_used = -1);

  const std::vector<Node>& nodes() const { return nodes_; }
  std::size_t node_count() const { return nodes_.size(); }

  /// All participating processors in deterministic order: nodes in insertion
  /// order, CPUs 0..cpus_used-1 within each node.
  std::vector<Processor> processors() const;

  /// Number of participating processors (== vmpi world size under HoHe).
  int processor_count() const;

  /// Sum of delivered compute rates over participating processors. This is
  /// the *true* aggregate rate; the metric's marked speed is the benchmarked
  /// estimate of it (marked::measure_system).
  double aggregate_rate_flops() const;

  /// Human-readable one-line summary ("1x SunFire server(2cpu) + 3x SunBlade").
  std::string summary() const;

 private:
  std::vector<Node> nodes_;
};

}  // namespace hetscale::machine
