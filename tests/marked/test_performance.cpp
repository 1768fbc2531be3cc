#include "hetscale/marked/performance.hpp"

#include <gtest/gtest.h>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/marked/suite.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::marked {
namespace {

using machine::sunwulf::sunblade_spec;
using machine::sunwulf::v210_spec;

TEST(MarkedPerformance, ComputeComponentIsClassicMarkedSpeed) {
  const auto performance = node_marked_performance(sunblade_spec());
  EXPECT_DOUBLE_EQ(performance.compute_flops,
                   node_marked_speed(sunblade_spec()));
}

TEST(MarkedPerformance, MemoryProbeRecoversNodeBandwidth) {
  const auto performance = node_marked_performance(sunblade_spec());
  EXPECT_NEAR(performance.memory_Bps, sunblade_spec().memory_bandwidth_Bps,
              1e-3 * performance.memory_Bps);
}

TEST(MarkedPerformance, NetworkProbeRecoversLinkParameters) {
  const net::NetworkParams params;
  const auto performance =
      node_marked_performance(sunblade_spec(), params);
  EXPECT_NEAR(performance.network_Bps, params.remote.bandwidth_Bps,
              1e-6 * params.remote.bandwidth_Bps);
  // Measured latency includes the software per-message overhead.
  EXPECT_NEAR(performance.network_latency_s,
              params.remote.latency_s + params.per_message_overhead_s,
              1e-9);
}

TEST(MarkedPerformance, V210BeatsSunBladeOnEveryAxis) {
  const auto blade = node_marked_performance(sunblade_spec());
  const auto v210 = node_marked_performance(v210_spec());
  EXPECT_GT(v210.compute_flops, blade.compute_flops);
  EXPECT_GT(v210.memory_Bps, blade.memory_Bps);
  // Same NIC: network measures agree.
  EXPECT_NEAR(v210.network_Bps, blade.network_Bps, 1.0);
}

TEST(MarkedPerformance, ComputeBoundProfileDegeneratesToMarkedSpeed) {
  const auto performance = node_marked_performance(sunblade_spec());
  EXPECT_DOUBLE_EQ(
      effective_marked_speed(performance, compute_bound_profile()),
      performance.compute_flops);
}

TEST(MarkedPerformance, MemoryIntensityLowersEffectiveSpeed) {
  const auto performance = node_marked_performance(sunblade_spec());
  ApplicationProfile stream;
  stream.memory_bytes_per_flop = 12.0;  // triad-like
  const double effective = effective_marked_speed(performance, stream);
  EXPECT_LT(effective, performance.compute_flops);
  // Roofline arithmetic: 1/Ceff = 1/Cf + 12/Cm.
  EXPECT_NEAR(1.0 / effective,
              1.0 / performance.compute_flops +
                  12.0 / performance.memory_Bps,
              1e-12);
}

TEST(MarkedPerformance, NetworkIntensityLowersEffectiveSpeedFurther) {
  const auto performance = node_marked_performance(sunblade_spec());
  ApplicationProfile mem_only;
  mem_only.memory_bytes_per_flop = 4.0;
  ApplicationProfile both = mem_only;
  both.network_bytes_per_flop = 0.5;
  EXPECT_LT(effective_marked_speed(performance, both),
            effective_marked_speed(performance, mem_only));
}

TEST(MarkedPerformance, EffectiveSpeedOrderingCanFlipWithProfile) {
  // A node with faster compute but slower memory can lose its advantage on
  // a memory-bound profile — the reason a single marked speed is not
  // always enough (the paper's motivation for this extension).
  MarkedPerformance fast_cpu{.compute_flops = 100e6,
                             .memory_Bps = 200e6,
                             .network_Bps = 1e7,
                             .network_latency_s = 1e-4};
  MarkedPerformance balanced{.compute_flops = 60e6,
                             .memory_Bps = 900e6,
                             .network_Bps = 1e7,
                             .network_latency_s = 1e-4};
  EXPECT_GT(effective_marked_speed(fast_cpu, compute_bound_profile()),
            effective_marked_speed(balanced, compute_bound_profile()));
  ApplicationProfile memory_bound;
  memory_bound.memory_bytes_per_flop = 16.0;
  EXPECT_LT(effective_marked_speed(fast_cpu, memory_bound),
            effective_marked_speed(balanced, memory_bound));
}

TEST(MarkedPerformance, InvalidProfilesRejected) {
  const auto performance = node_marked_performance(sunblade_spec());
  ApplicationProfile bad;
  bad.memory_bytes_per_flop = -1.0;
  EXPECT_THROW(effective_marked_speed(performance, bad), PreconditionError);
}

}  // namespace
}  // namespace hetscale::marked
