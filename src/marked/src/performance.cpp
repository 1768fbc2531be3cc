#include "hetscale/marked/performance.hpp"

#include <memory>

#include "hetscale/marked/suite.hpp"
#include "hetscale/net/switched.hpp"
#include "hetscale/support/error.hpp"
#include "hetscale/vmpi/machine.hpp"

namespace hetscale::marked {

namespace {

using des::Task;

/// STREAM-style probe: stream `bytes` through the node's memory system and
/// report sustained bandwidth. Memory traffic is charged through the same
/// compute primitive the rest of the simulator uses, at the node's copy
/// rate, so future timing-model changes flow into this measure too.
double measure_memory_bandwidth(const machine::NodeSpec& spec) {
  HETSCALE_REQUIRE(spec.memory_bandwidth_Bps > 0.0,
                   "node needs a positive memory bandwidth");
  machine::Cluster cluster;
  cluster.add_node("stream-node", spec, /*cpus_used=*/1);
  auto machine = vmpi::Machine::switched(std::move(cluster));
  const double bytes = 64e6;  // a triad sweep well beyond cache
  auto elapsed = std::make_shared<double>(0.0);
  machine.run([&spec, bytes, elapsed](vmpi::Comm& comm) -> Task<void> {
    const double efficiency = spec.memory_bandwidth_Bps / comm.rate_flops();
    const des::SimTime start = comm.now();
    co_await comm.compute(bytes, efficiency);  // time = bytes / mem_bw
    *elapsed = comm.now() - start;
  });
  return bytes / *elapsed;
}

/// Two-point p2p probe on a pair of these nodes: bandwidth from the slope,
/// latency (including software overhead) from the intercept.
void measure_network(const machine::NodeSpec& spec,
                     const net::NetworkParams& params,
                     MarkedPerformance& out) {
  auto one_way = [&](double bytes) {
    machine::Cluster cluster;
    cluster.add_node("a", spec, 1);
    cluster.add_node("b", spec, 1);
    auto machine = vmpi::Machine(
        std::move(cluster), std::make_unique<net::SwitchedNetwork>(params));
    auto arrival = std::make_shared<double>(0.0);
    machine.run([bytes, arrival](vmpi::Comm& comm) -> Task<void> {
      constexpr int kTag = 910;
      if (comm.rank() == 0) {
        co_await comm.send(1, kTag, bytes, {});
      } else {
        const auto message = co_await comm.recv(0, kTag);
        *arrival = message.arrival;
      }
    });
    return *arrival;
  };
  const double b1 = 1e4;
  const double b2 = 1e6;
  const double t1 = one_way(b1);
  const double t2 = one_way(b2);
  out.network_Bps = (b2 - b1) / (t2 - t1);
  out.network_latency_s = t1 - b1 / out.network_Bps;
}

}  // namespace

ApplicationProfile compute_bound_profile() { return {}; }

MarkedPerformance node_marked_performance(
    const machine::NodeSpec& spec, const net::NetworkParams& net_params) {
  MarkedPerformance performance;
  performance.compute_flops = node_marked_speed(spec);
  performance.memory_Bps = measure_memory_bandwidth(spec);
  measure_network(spec, net_params, performance);
  return performance;
}

double effective_marked_speed(const MarkedPerformance& performance,
                              const ApplicationProfile& profile) {
  HETSCALE_REQUIRE(performance.compute_flops > 0.0,
                   "compute rate must be positive");
  HETSCALE_REQUIRE(profile.memory_bytes_per_flop >= 0.0 &&
                       profile.network_bytes_per_flop >= 0.0,
                   "profile intensities must be non-negative");
  double seconds_per_flop = 1.0 / performance.compute_flops;
  if (profile.memory_bytes_per_flop > 0.0) {
    HETSCALE_REQUIRE(performance.memory_Bps > 0.0,
                     "memory-bound profile needs a memory measure");
    seconds_per_flop += profile.memory_bytes_per_flop / performance.memory_Bps;
  }
  if (profile.network_bytes_per_flop > 0.0) {
    HETSCALE_REQUIRE(performance.network_Bps > 0.0,
                     "network-bound profile needs a network measure");
    seconds_per_flop +=
        profile.network_bytes_per_flop / performance.network_Bps;
  }
  return 1.0 / seconds_per_flop;
}

}  // namespace hetscale::marked
