// SharedBusNetwork: all inter-node traffic serializes on one medium.
//
// This models the paper's testbed ("The network connecting all these nodes
// is 100M Ethernet"): frames from different senders cannot overlap, so
// flat-tree collectives cost Θ(p) — the shape the paper measured.
#pragma once

#include "hetscale/des/timeline.hpp"
#include "hetscale/net/network.hpp"

namespace hetscale::net {

class SharedBusNetwork final : public Network {
 public:
  explicit SharedBusNetwork(NetworkParams params = {}) : Network(params) {}

 private:
  TransferResult remote_transfer(int src_node, int dst_node, double bytes,
                                 SimTime depart) override;

  des::Timeline medium_;
};

}  // namespace hetscale::net
