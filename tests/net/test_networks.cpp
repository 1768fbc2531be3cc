#include <gtest/gtest.h>

#include "hetscale/net/network.hpp"
#include "hetscale/net/shared_bus.hpp"
#include "hetscale/net/switched.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::net {
namespace {

NetworkParams test_params() {
  NetworkParams p;
  p.remote = {1e-4, 1e7};          // 0.1 ms latency, 10 MB/s
  p.local = {1e-6, 1e9};           // 1 us, 1 GB/s
  p.per_message_overhead_s = 1e-5;
  return p;
}

TEST(SharedBus, SingleTransferTimeIsOverheadPlusWirePlusLatency) {
  SharedBusNetwork bus(test_params());
  const auto r = bus.transfer(0, 1, 1e5, 0.0);
  // 1e-5 overhead + 1e5/1e7 = 0.01 wire + 1e-4 latency
  EXPECT_NEAR(r.arrival, 1e-5 + 0.01 + 1e-4, 1e-12);
  EXPECT_NEAR(r.sender_free, 1e-5 + 0.01, 1e-12);
}

TEST(SharedBus, ConcurrentTransfersSerializeOnTheMedium) {
  SharedBusNetwork bus(test_params());
  const auto first = bus.transfer(0, 1, 1e5, 0.0);
  const auto second = bus.transfer(2, 3, 1e5, 0.0);  // different nodes!
  EXPECT_GT(second.arrival, first.arrival);
  EXPECT_NEAR(second.arrival - first.arrival, 0.01, 1e-12);
}

TEST(SharedBus, LocalTransfersBypassTheMedium) {
  SharedBusNetwork bus(test_params());
  bus.transfer(0, 1, 1e6, 0.0);  // occupy the bus for 0.1 s
  const auto local = bus.transfer(2, 2, 1e3, 0.0);
  EXPECT_LT(local.arrival, 1e-3);  // unaffected by the busy bus
}

TEST(Switched, DistinctSendersDoNotContend) {
  SwitchedNetwork sw(test_params());
  const auto a = sw.transfer(0, 1, 1e5, 0.0);
  const auto b = sw.transfer(2, 3, 1e5, 0.0);
  EXPECT_DOUBLE_EQ(a.arrival, b.arrival);
}

TEST(Switched, SameSenderSerializesOnItsPort) {
  SwitchedNetwork sw(test_params());
  const auto a = sw.transfer(0, 1, 1e5, 0.0);
  const auto b = sw.transfer(0, 2, 1e5, 0.0);
  EXPECT_NEAR(b.arrival - a.arrival, 0.01, 1e-12);
}

TEST(Switched, FasterThanSharedBusForFanOut) {
  const auto params = test_params();
  SharedBusNetwork bus(params);
  SwitchedNetwork sw(params);
  double bus_last = 0.0;
  double sw_last = 0.0;
  for (int s = 0; s < 8; ++s) {
    bus_last = std::max(bus_last, bus.transfer(s, 8, 1e5, 0.0).arrival);
    sw_last = std::max(sw_last, sw.transfer(s, 8, 1e5, 0.0).arrival);
  }
  EXPECT_GT(bus_last, sw_last);
}

TEST(Network, StatsAccumulate) {
  SharedBusNetwork bus(test_params());
  bus.transfer(0, 1, 100.0, 0.0);
  bus.transfer(1, 0, 50.0, 1.0);
  EXPECT_EQ(bus.stats().messages, 2u);
  EXPECT_DOUBLE_EQ(bus.stats().bytes, 150.0);
}

TEST(Network, ZeroByteMessageStillPaysLatencyAndOverhead) {
  SharedBusNetwork bus(test_params());
  const auto r = bus.transfer(0, 1, 0.0, 0.0);
  EXPECT_NEAR(r.arrival, 1e-5 + 1e-4, 1e-12);
}

TEST(Network, InvalidArgumentsRejected) {
  SharedBusNetwork bus(test_params());
  EXPECT_THROW(bus.transfer(0, 1, -1.0, 0.0), PreconditionError);
  EXPECT_THROW(bus.transfer(-1, 1, 1.0, 0.0), PreconditionError);
  EXPECT_THROW(bus.transfer(0, 1, 1.0, -0.5), PreconditionError);
}

TEST(LinkParams, WireTimeIsBytesOverBandwidth) {
  const LinkParams link{1e-4, 12.5e6};
  EXPECT_NEAR(link.wire_time(12.5e6), 1.0, 1e-12);
}

}  // namespace
}  // namespace hetscale::net
