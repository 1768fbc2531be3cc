// DegradedNetwork — a decorator that applies a FaultPlan's link faults to
// any wire model.
//
// Wiring: build the healthy network (shared bus, switched, ...) as usual,
// then wrap it; the Machine owns the decorator and the decorator owns the
// inner model. During a degraded window the inter-node path loses
// bandwidth — modeled by inflating the on-wire size by 1/bandwidth_factor,
// so a degraded frame genuinely occupies the medium longer and contention
// under degradation *emerges* from the inner model — and gains propagation
// latency, added to the arrival only (the sender's link drain is governed
// by the inflated occupancy). Intra-node transfers and the decorator's
// traffic statistics (nominal bytes) are unaffected, so healthy and
// degraded runs report comparable traffic.
//
// The window is chosen by the *departure* time of the message — one frame,
// one state; frames never straddle windows, which keeps the model
// analytic and the timeline deterministic.
#pragma once

#include <memory>

#include "hetscale/fault/plan.hpp"
#include "hetscale/net/network.hpp"

namespace hetscale::fault {

class DegradedNetwork final : public net::Network {
 public:
  /// Takes ownership of the healthy model. The plan must outlive this.
  DegradedNetwork(std::unique_ptr<net::Network> inner, const FaultPlan& plan);

  net::TransferResult transfer(int src_node, int dst_node, double bytes,
                               des::SimTime depart) override;

  const net::Network& inner() const { return *inner_; }

  /// The decorator records nominal traffic; the inner model carries the
  /// (inflated) frames, so on-wire truth lives there.
  const net::Network& wire_model() const override {
    return inner_->wire_model();
  }

  /// The inner model's bound still holds: inflated frames and extra
  /// latency only make arrivals later.
  double lookahead_s() const override { return inner_->lookahead_s(); }

 private:
  void presize_nodes(int node_count) override { inner_->presize(node_count); }

  // Never reached: transfer() is overridden wholesale and delegates to the
  // inner model.
  net::TransferResult remote_transfer(int src_node, int dst_node,
                                      double bytes,
                                      des::SimTime depart) override;

  std::unique_ptr<net::Network> inner_;
  const FaultPlan* plan_;
};

}  // namespace hetscale::fault
