#include "hetscale/net/network.hpp"

#include "hetscale/support/error.hpp"

namespace hetscale::net {

TransferResult Network::transfer(int src_node, int dst_node, double bytes,
                                 SimTime depart) {
  HETSCALE_REQUIRE(bytes >= 0.0, "message size must be non-negative");
  HETSCALE_REQUIRE(src_node >= 0 && dst_node >= 0, "node ids must be >= 0");
  HETSCALE_REQUIRE(depart >= 0.0, "departure time must be >= 0");
  record_traffic(src_node, bytes);

  const SimTime ready = depart + params_.per_message_overhead_s;
  if (src_node == dst_node) {
    // Intra-node: a memory copy, no shared medium involved.
    const SimTime done =
        ready + params_.local.latency_s + params_.local.wire_time(bytes);
    return TransferResult{done, done};
  }
  return remote_transfer(src_node, dst_node, bytes, ready);
}

NetworkStats Network::stats() const {
  NetworkStats stats;
  for (std::size_t node = 0; node < nodes_.size(); ++node) {
    const NodeStats& n = nodes_[node];
    stats.messages += n.messages;
    stats.bytes += n.bytes;
    if (n.frames == 0) continue;
    stats.wire_seconds += n.link.wire_s;
    stats.contention_seconds += n.link.stall_s;
    stats.links.emplace(static_cast<int>(node), n.link);
  }
  return stats;
}

void Network::presize(int node_count) {
  HETSCALE_REQUIRE(node_count >= 0, "node count must be >= 0");
  if (static_cast<std::size_t>(node_count) > nodes_.size()) {
    nodes_.resize(static_cast<std::size_t>(node_count));
  }
  presize_nodes(node_count);
}

Network::NodeStats& Network::node_stats(int node) {
  HETSCALE_REQUIRE(node >= 0, "node ids must be >= 0");
  if (static_cast<std::size_t>(node) >= nodes_.size()) {
    nodes_.resize(static_cast<std::size_t>(node) + 1);
  }
  return nodes_[static_cast<std::size_t>(node)];
}

void Network::record_traffic(int src_node, double bytes) {
  NodeStats& node = node_stats(src_node);
  ++node.messages;
  node.bytes += bytes;
}

void Network::record_wire(int src_node, double bytes, double wire_s,
                          double stall_s) {
  NodeStats& node = node_stats(src_node);
  ++node.frames;
  node.link.bytes += bytes;
  node.link.wire_s += wire_s;
  node.link.stall_s += stall_s;
}

}  // namespace hetscale::net
