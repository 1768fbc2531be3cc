// SwitchedNetwork: full-bisection switch; only each node's injection port
// serializes. Used by the ablation benches to ask "how much of GE's poor
// scalability is the shared medium?".
#pragma once

#include <vector>

#include "hetscale/des/timeline.hpp"
#include "hetscale/net/network.hpp"

namespace hetscale::net {

class SwitchedNetwork final : public Network {
 public:
  explicit SwitchedNetwork(NetworkParams params = {}) : Network(params) {}

  /// Per-node links give a real lookahead: a message departing node A at t
  /// is invisible to every other node before t plus the sender's software
  /// overhead and the link latency (contention and wire time only push the
  /// arrival later). This is what lets the partitioned scheduler advance
  /// each partition a full window past the global next event.
  double lookahead_s() const override {
    return params_.per_message_overhead_s + params_.remote.latency_s;
  }

 private:
  TransferResult remote_transfer(int src_node, int dst_node, double bytes,
                                 SimTime depart) override;

  /// Presize the port table: with one rank per node each port is touched
  /// by exactly one partition thread, but the table itself must not grow
  /// concurrently.
  void presize_nodes(int node_count) override;

  des::Timeline& tx_port(int node);

  std::vector<des::Timeline> tx_ports_;
};

}  // namespace hetscale::net
