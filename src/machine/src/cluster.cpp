#include "hetscale/machine/cluster.hpp"

#include <map>
#include <sstream>

#include "hetscale/support/error.hpp"

namespace hetscale::machine {

int Cluster::add_node(std::string name, NodeSpec spec, int cpus_used) {
  HETSCALE_REQUIRE(spec.cpus >= 1, "node must have at least one CPU");
  HETSCALE_REQUIRE(spec.cpu_rate_flops > 0.0, "CPU rate must be positive");
  if (cpus_used < 0) cpus_used = spec.cpus;
  HETSCALE_REQUIRE(cpus_used >= 1 && cpus_used <= spec.cpus,
                   "cpus_used must be in [1, spec.cpus]");
  nodes_.push_back(Node{std::move(name), std::move(spec), cpus_used});
  return static_cast<int>(nodes_.size()) - 1;
}

std::vector<Processor> Cluster::processors() const {
  std::vector<Processor> procs;
  for (std::size_t n = 0; n < nodes_.size(); ++n) {
    for (int c = 0; c < nodes_[n].cpus_used; ++c) {
      procs.push_back(Processor{static_cast<int>(n), c,
                                nodes_[n].spec.cpu_rate_flops});
    }
  }
  return procs;
}

int Cluster::processor_count() const {
  int count = 0;
  for (const auto& node : nodes_) count += node.cpus_used;
  return count;
}

double Cluster::aggregate_rate_flops() const {
  double total = 0.0;
  for (const auto& node : nodes_) {
    total += node.cpus_used * node.spec.cpu_rate_flops;
  }
  return total;
}

std::string Cluster::summary() const {
  // Group by (model, cpus_used) preserving first-appearance order.
  std::vector<std::pair<std::string, int>> order;
  std::map<std::string, int> counts;
  for (const auto& node : nodes_) {
    std::ostringstream key;
    key << node.spec.model;
    if (node.cpus_used != node.spec.cpus || node.spec.cpus > 1) {
      key << '(' << node.cpus_used << "cpu)";
    }
    auto [it, inserted] = counts.emplace(key.str(), 0);
    if (inserted) order.emplace_back(key.str(), 0);
    ++it->second;
  }
  std::ostringstream os;
  for (std::size_t i = 0; i < order.size(); ++i) {
    if (i != 0) os << " + ";
    os << counts[order[i].first] << "x " << order[i].first;
  }
  return os.str();
}

}  // namespace hetscale::machine
