#include "hetscale/net/shared_bus.hpp"

#include <algorithm>

namespace hetscale::net {

TransferResult SharedBusNetwork::remote_transfer(int src_node,
                                                 int /*dst_node*/,
                                                 double bytes,
                                                 SimTime depart) {
  // The frame occupies the medium for its full wire time; delivery completes
  // one latency after the last bit leaves the wire. The sender blocks until
  // its frame has been transmitted (synchronous send over a shared segment).
  const double wire = params_.remote.wire_time(bytes);
  const SimTime start = std::max(depart, medium_.free_at());
  const SimTime wire_done = medium_.reserve(depart, wire);
  record_wire(src_node, bytes, wire, start - depart);
  const SimTime arrival = wire_done + params_.remote.latency_s;
  return TransferResult{arrival, wire_done};
}

}  // namespace hetscale::net
