#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hetscale/vmpi/machine.hpp"
#include "test_cluster.hpp"

namespace hetscale::vmpi {
namespace {

using des::Task;

net::NetworkParams fast_params() {
  net::NetworkParams p;
  p.remote = {1e-4, 1e7};
  p.per_message_overhead_s = 1e-5;
  return p;
}

class CollectiveSizes : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(WorldSizes, CollectiveSizes,
                         ::testing::Values(1, 2, 3, 5, 9, 17));

TEST_P(CollectiveSizes, BcastDeliversRootPayloadEverywhere) {
  const int p = GetParam();
  auto machine = Machine::shared_bus(test_cluster(p), fast_params());
  auto received = std::make_shared<std::vector<double>>(p, -1.0);
  machine.run([received](Comm& comm) -> Task<void> {
    Payload payload;
    if (comm.rank() == 0) payload = Payload(1234.0);
    const Payload out = co_await comm.bcast(0, 8.0, std::move(payload));
    (*received)[static_cast<std::size_t>(comm.rank())] = out.scalar();
  });
  for (double v : *received) EXPECT_EQ(v, 1234.0);
}

TEST_P(CollectiveSizes, BarrierSynchronizesEveryone) {
  const int p = GetParam();
  auto machine = Machine::shared_bus(test_cluster(p), fast_params());
  auto after = std::make_shared<std::vector<double>>(p, -1.0);
  auto slowest_arrival = std::make_shared<double>(0.0);
  machine.run([after, slowest_arrival](Comm& comm) -> Task<void> {
    // Rank r arrives at the barrier at a staggered time.
    co_await comm.compute(static_cast<double>(comm.rank()) * 5e6);
    *slowest_arrival = std::max(*slowest_arrival, comm.now());
    co_await comm.barrier();
    (*after)[static_cast<std::size_t>(comm.rank())] = comm.now();
  });
  for (double t : *after) {
    EXPECT_GE(t + 1e-12, *slowest_arrival);
  }
}

TEST_P(CollectiveSizes, GatherCollectsEveryRanksContribution) {
  const int p = GetParam();
  auto machine = Machine::shared_bus(test_cluster(p), fast_params());
  auto sum = std::make_shared<double>(0.0);
  machine.run([sum](Comm& comm) -> Task<void> {
    const double mine = comm.rank() * comm.rank();
    auto parts = co_await comm.gather(0, 8.0, Payload(mine));
    if (comm.rank() == 0) {
      for (const auto& part : parts) *sum += part.scalar();
    } else {
      EXPECT_TRUE(parts.empty());
    }
  });
  double expect = 0.0;
  for (int r = 0; r < p; ++r) expect += r * r;
  EXPECT_EQ(*sum, expect);
}

TEST(Collectives, ConsecutiveBcastsDoNotInterleave) {
  auto machine = Machine::shared_bus(test_cluster(4), fast_params());
  auto sums = std::make_shared<std::vector<double>>();
  machine.run([sums](Comm& comm) -> Task<void> {
    for (int round = 0; round < 3; ++round) {
      Payload payload;
      if (comm.rank() == 0) payload = Payload(round * 7.0);
      const Payload out = co_await comm.bcast(0, 8.0, std::move(payload));
      if (comm.rank() == 3) sums->push_back(out.scalar());
    }
  });
  EXPECT_EQ(*sums, (std::vector<double>{0.0, 7.0, 14.0}));
}

TEST(Collectives, BcastCostGrowsLinearlyOnSharedBus) {
  // Flat tree over a serialized medium: completion ~ (p-1)(o + L + m/B).
  auto time_for = [&](int p) {
    auto machine = Machine::shared_bus(test_cluster(p), fast_params());
    auto latest = std::make_shared<double>(0.0);
    machine.run([latest](Comm& comm) -> Task<void> {
      Payload payload;
      if (comm.rank() == 0) payload = Payload(1.0);
      co_await comm.bcast(0, 1e4, std::move(payload));
      *latest = std::max(*latest, comm.now());
    });
    return *latest;
  };
  const double t4 = time_for(4);
  const double t8 = time_for(8);
  const double t16 = time_for(16);
  // (p-1) scaling: (t16 / t8) should be close to 15/7, (t8 / t4) to 7/3.
  EXPECT_NEAR(t8 / t4, 7.0 / 3.0, 0.15);
  EXPECT_NEAR(t16 / t8, 15.0 / 7.0, 0.15);
}

TEST(Collectives, BarrierCostIsAffineInWorldSize) {
  // T_barrier(p) = const + (p-1)·unit on the shared bus (the end latency is
  // pipelined, everything else serializes): differences scale linearly.
  // This is the paper-era flat barrier; pin it — the tree default has a
  // different (logarithmic-depth) law.
  auto time_for = [&](int p) {
    auto machine = Machine::shared_bus(test_cluster(p), fast_params(),
                                       CollectiveTuning::legacy_flat());
    auto latest = std::make_shared<double>(0.0);
    machine.run([latest](Comm& comm) -> Task<void> {
      co_await comm.barrier();
      *latest = std::max(*latest, comm.now());
    });
    return *latest;
  };
  const double t4 = time_for(4);
  const double t8 = time_for(8);
  const double t16 = time_for(16);
  EXPECT_GT(t8, t4);
  EXPECT_GT(t16, t8);
  // (t16 - t8) / (t8 - t4) = (15-7)/(7-3) = 2 for an affine law.
  EXPECT_NEAR((t16 - t8) / (t8 - t4), 2.0, 0.2);
}

}  // namespace
}  // namespace hetscale::vmpi
