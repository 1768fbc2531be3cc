#include "hetscale/fault/degraded_network.hpp"

#include <utility>

#include "hetscale/support/error.hpp"

namespace hetscale::fault {

namespace {
// Validated before the base is initialized from it — the constructor must
// not dereference a null inner model.
const net::Network& checked(const std::unique_ptr<net::Network>& inner) {
  HETSCALE_REQUIRE(inner != nullptr, "inner network must not be null");
  return *inner;
}
}  // namespace

DegradedNetwork::DegradedNetwork(std::unique_ptr<net::Network> inner,
                                 const FaultPlan& plan)
    : net::Network(checked(inner).params()),
      inner_(std::move(inner)),
      plan_(&plan) {}

net::TransferResult DegradedNetwork::transfer(int src_node, int dst_node,
                                              double bytes,
                                              des::SimTime depart) {
  HETSCALE_REQUIRE(bytes >= 0.0, "message size must be non-negative");
  record_traffic(src_node, bytes);
  if (src_node == dst_node) {
    // Intra-node copies never touch the degraded medium.
    return inner_->transfer(src_node, dst_node, bytes, depart);
  }
  const FaultPlan::LinkState state = plan_->link_state(depart);
  const double inflated = bytes / state.bandwidth_factor;
  net::TransferResult result =
      inner_->transfer(src_node, dst_node, inflated, depart);
  result.arrival += state.extra_latency_s;
  return result;
}

net::TransferResult DegradedNetwork::remote_transfer(int /*src_node*/,
                                                     int /*dst_node*/,
                                                     double /*bytes*/,
                                                     des::SimTime /*depart*/) {
  HETSCALE_CHECK(false, "DegradedNetwork overrides transfer() wholesale");
  return {};
}

}  // namespace hetscale::fault
