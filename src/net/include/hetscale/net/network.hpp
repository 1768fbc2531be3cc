// Network models.
//
// A Network answers one question analytically: if `bytes` leave node `src`
// for node `dst` at virtual time `depart`, when does the message arrive, and
// when is the sender's CPU free again? The vmpi runtime builds blocking
// sends, receives, and collectives on top of this; collective costs (linear
// in p over a shared medium, like the paper's measured T_bcast ≈ 0.23·p ms)
// then *emerge* instead of being hard-coded.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "hetscale/des/scheduler.hpp"

namespace hetscale::net {

using des::SimTime;

/// Latency/bandwidth of one class of path.
struct LinkParams {
  double latency_s = 5e-5;        ///< end-to-end latency per message
  double bandwidth_Bps = 12.5e6;  ///< sustained payload bandwidth

  /// Pure transmission time of a payload on this link.
  double wire_time(double bytes) const { return bytes / bandwidth_Bps; }
};

/// Result of a point-to-point transfer.
struct TransferResult {
  SimTime arrival;      ///< when the full message is available at dst
  SimTime sender_free;  ///< when the sending CPU can proceed
};

/// Common knobs shared by all network models.
///
/// Defaults are calibrated to the paper's testbed (100 Mb Ethernet, MPICH
/// on ~500 MHz SPARC): ~12.5 MB/s sustained, ~50 us wire latency, and
/// ~100 us of software cost per message — which reproduces the paper's
/// measured T_send ≈ 0.1 ms + per-byte and T_bcast ≈ 0.2 ms per rank.
struct NetworkParams {
  LinkParams remote{5e-5, 12.5e6};  ///< inter-node path (100 Mb Ethernet)
  LinkParams local{5e-6, 400e6};    ///< intra-node path (shared memory copy)
  double per_message_overhead_s = 1e-4;  ///< software send setup cost

  /// Software cost the *receiving* CPU pays per matched message. Off by
  /// default: the paper's calibration folds both ends into the sender-side
  /// overhead, which is fine while every hot collective is root-sourced.
  /// It matters for incast — p-1 concurrent senders hitting one root cost
  /// the root Θ(p) of receive processing in reality, yet 0 under a pure
  /// sender-side model. Studies of gather/reduce-shaped traffic (the
  /// micro_collectives benchmark) turn this on to make that cost visible.
  double recv_overhead_s = 0.0;
};

/// Cumulative on-wire totals of one physical link (a node's injection port
/// on a switched fabric, or a sender's share of the shared bus).
struct LinkStats {
  double bytes = 0.0;   ///< payload bytes transmitted
  double wire_s = 0.0;  ///< time the link was transmitting
  double stall_s = 0.0; ///< time frames waited for the link (contention)
};

/// Cumulative traffic statistics (see Network::stats()).
struct NetworkStats {
  std::uint64_t messages = 0;
  double bytes = 0.0;
  double wire_seconds = 0.0;        ///< total transmission time on all links
  double contention_seconds = 0.0;  ///< total time frames queued for a link
  std::map<int, LinkStats> links;   ///< keyed by sending node
};

class Network {
 public:
  explicit Network(NetworkParams params) : params_(params) {}
  virtual ~Network() = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Model a message of `bytes` from node `src` to node `dst`, departing at
  /// `depart`. Transfers between ranks on the same node take the local path.
  /// Virtual so that decorators (fault::DegradedNetwork) can intercept the
  /// whole transfer; concrete wire models override remote_transfer instead.
  virtual TransferResult transfer(int src_node, int dst_node, double bytes,
                                  SimTime depart);

  const NetworkParams& params() const { return params_; }

  /// Cumulative totals. Every value is recorded under the sending node that
  /// caused it, and the machine totals are sums over nodes in index order,
  /// so they do not depend on which thread simulated which node.
  NetworkStats stats() const;

  /// Conservative-parallel lookahead: a positive lower bound on the virtual
  /// time between a message's departure and its visibility at any *other*
  /// node, or 0 when the model provides no such bound (a shared medium
  /// serializes every sender globally, so a machine on it runs as one
  /// partition). Concrete models with per-node links override this.
  virtual double lookahead_s() const { return 0.0; }

  /// Grow every per-node table to cover nodes [0, node_count) up front, so
  /// simulation threads that each own distinct sending nodes never race a
  /// lazy resize. Afterwards each node's state is written only by
  /// transfers that node sends.
  void presize(int node_count);

  /// The network whose stats() describe what was physically on the wire.
  /// Decorators that re-route transfers through an inner model (and record
  /// only *nominal* traffic on themselves) forward to it, so profilers can
  /// always reach on-wire truth.
  virtual const Network& wire_model() const { return *this; }

 protected:
  /// Model-specific remote path; local transfers are handled by the base.
  virtual TransferResult remote_transfer(int src_node, int dst_node,
                                         double bytes, SimTime depart) = 0;

  /// Model-specific hook of presize(): grow any per-node state of the
  /// model (or of the model it decorates).
  virtual void presize_nodes(int node_count) { (void)node_count; }

  /// Count one message of `bytes` sent by `src_node` toward stats()
  /// (decorators overriding transfer() call this with the *nominal* size,
  /// so traffic reports stay comparable between healthy and degraded runs).
  void record_traffic(int src_node, double bytes);

  /// The same for a decorator that does not track the sending node: the
  /// message is counted under node 0, so such a decorator must only run as
  /// a single partition.
  void record_traffic(double bytes) { record_traffic(0, bytes); }

  /// Count one frame's link occupancy: `wire_s` of transmission and
  /// `stall_s` of waiting for the link, charged to `src_node`'s link.
  void record_wire(int src_node, double bytes, double wire_s, double stall_s);

  NetworkParams params_;

 private:
  /// Everything recorded under one sending node.
  struct NodeStats {
    std::uint64_t messages = 0;
    double bytes = 0.0;          ///< nominal traffic
    std::uint64_t frames = 0;    ///< frames put on this node's link
    LinkStats link;
  };

  NodeStats& node_stats(int node);

  std::vector<NodeStats> nodes_;
};

}  // namespace hetscale::net
