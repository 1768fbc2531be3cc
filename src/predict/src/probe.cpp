#include "hetscale/predict/probe.hpp"

#include <algorithm>
#include <memory>
#include <string>

#include "hetscale/marked/suite.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::predict {

namespace {

using des::Task;
using vmpi::Comm;

machine::Cluster probe_cluster(const machine::NodeSpec& spec, int nodes) {
  machine::Cluster cluster;
  for (int i = 0; i < nodes; ++i) {
    cluster.add_node("probe-" + std::to_string(i), spec, /*cpus_used=*/1);
  }
  return cluster;
}

}  // namespace

double measure_send_time(const ProbeConfig& config, double bytes) {
  HETSCALE_REQUIRE(bytes >= 0.0, "bytes must be non-negative");
  auto machine = scal::make_machine(probe_cluster(config.node, 2),
                                    config.network, config.params);
  auto elapsed = std::make_shared<double>(0.0);
  machine.run([bytes, elapsed](Comm& comm) -> Task<void> {
    constexpr int kTag = 900;
    if (comm.rank() == 0) {
      co_await comm.send(1, kTag, bytes, {});
    } else {
      const auto message = co_await comm.recv(0, kTag);
      // One-way time: the probe starts at t = 0 on both ranks.
      *elapsed = message.arrival;
    }
  });
  return *elapsed;
}

double measure_bcast_time(const ProbeConfig& config, int ranks,
                          double bytes) {
  HETSCALE_REQUIRE(ranks >= 2, "bcast probe needs at least 2 ranks");
  auto machine = scal::make_machine(probe_cluster(config.node, ranks),
                                    config.network, config.params);
  // Every rank finishes when its part of the broadcast completes, so the
  // run's elapsed time is the completion time, max over ranks.
  return machine
      .run([bytes](Comm& comm) -> Task<void> {
        co_await comm.bcast(0, bytes, {});
      })
      .elapsed;
}

double measure_barrier_time(const ProbeConfig& config, int ranks) {
  HETSCALE_REQUIRE(ranks >= 2, "barrier probe needs at least 2 ranks");
  auto machine = scal::make_machine(probe_cluster(config.node, ranks),
                                    config.network, config.params);
  return machine
      .run([](Comm& comm) -> Task<void> { co_await comm.barrier(); })
      .elapsed;
}

CommModel probe_comm_model(const ProbeConfig& config) {
  HETSCALE_REQUIRE(config.bytes_large > config.bytes_small,
                   "need two distinct probe sizes");
  CommModel model;

  // Two-point linear fits, exactly the paper's T = a + b·m form.
  const double s1 = measure_send_time(config, config.bytes_small);
  const double s2 = measure_send_time(config, config.bytes_large);
  model.send_beta_s_per_byte =
      (s2 - s1) / (config.bytes_large - config.bytes_small);
  model.send_alpha_s = s1 - model.send_beta_s_per_byte * config.bytes_small;

  // Collectives are affine in (p-1) with a constant term (the pipelined
  // end latency), so both a size pair and a rank pair are probed.
  const int p2 = config.collective_ranks;
  const int p1 = std::max(2, p2 / 2 + 1);
  HETSCALE_REQUIRE(p2 > p1, "collective_ranks too small to fit the model");

  const double b11 = measure_bcast_time(config, p1, config.bytes_small);
  const double b12 = measure_bcast_time(config, p1, config.bytes_large);
  const double b21 = measure_bcast_time(config, p2, config.bytes_small);
  model.bcast_beta_s_per_byte =
      (b12 - b11) /
      (static_cast<double>(p1 - 1) * (config.bytes_large - config.bytes_small));
  model.bcast_alpha_s = (b21 - b11) / static_cast<double>(p2 - p1) -
                        model.bcast_beta_s_per_byte * config.bytes_small;
  model.bcast_const_s =
      b11 - static_cast<double>(p1 - 1) *
                (model.bcast_alpha_s +
                 model.bcast_beta_s_per_byte * config.bytes_small);

  const double bar1 = measure_barrier_time(config, p1);
  const double bar2 = measure_barrier_time(config, p2);
  model.barrier_unit_s = (bar2 - bar1) / static_cast<double>(p2 - p1);
  model.barrier_const_s =
      bar1 - static_cast<double>(p1 - 1) * model.barrier_unit_s;

  // Long-message broadcast: per-byte cost independent of (p-1).
  HETSCALE_REQUIRE(config.bytes_xl_large > config.bytes_xl_small,
                   "need two distinct long-message probe sizes");
  const double l11 = measure_bcast_time(config, p1, config.bytes_xl_small);
  const double l12 = measure_bcast_time(config, p1, config.bytes_xl_large);
  const double l21 = measure_bcast_time(config, p2, config.bytes_xl_small);
  model.bcast_large_beta_s_per_byte =
      (l12 - l11) / (config.bytes_xl_large - config.bytes_xl_small);
  model.bcast_large_alpha_s = (l21 - l11) / static_cast<double>(p2 - p1);
  model.bcast_large_const_s =
      l11 - static_cast<double>(p1 - 1) * model.bcast_large_alpha_s -
      model.bcast_large_beta_s_per_byte * config.bytes_xl_small;
  return model;
}

SystemModel system_model_for(const machine::Cluster& cluster,
                             const CommModel& comm) {
  SystemModel system;
  system.p = cluster.processor_count();
  const auto speeds = marked::rank_marked_speeds(cluster);
  system.marked_speed = 0.0;
  for (double c : speeds) system.marked_speed += c;
  system.root_speed = speeds.front();
  system.comm = comm;
  return system;
}

}  // namespace hetscale::predict
