#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hetscale/support/error.hpp"
#include "hetscale/support/units.hpp"
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

TEST(P2P, PayloadArrivesIntact) {
  auto machine = Machine::shared_bus(test_cluster(2), fast_params());
  auto out = std::make_shared<std::vector<double>>();
  machine.run([out](Comm& comm) -> Task<void> {
    if (comm.rank() == 0) {
      const std::vector<double> data{1.0, 2.0, 3.0};
      co_await comm.send(1, 7, 24.0, Payload::copy_of(data));
    } else {
      auto msg = co_await comm.recv(0, 7);
      EXPECT_EQ(msg.source, 0);
      EXPECT_EQ(msg.tag, 7);
      const auto view = msg.payload.doubles();
      out->assign(view.begin(), view.end());
    }
  });
  EXPECT_EQ(*out, (std::vector<double>{1.0, 2.0, 3.0}));
}

TEST(P2P, RecvBeforeSendBlocksUntilArrival) {
  auto machine = Machine::shared_bus(test_cluster(2), fast_params());
  auto recv_time = std::make_shared<double>(0.0);
  machine.run([recv_time](Comm& comm) -> Task<void> {
    if (comm.rank() == 0) {
      co_await comm.compute(50e6);  // 1 s of work before sending
      co_await comm.send(1, 1, 1000.0, {});
    } else {
      auto msg = co_await comm.recv(0, 1);
      *recv_time = comm.now();
      EXPECT_DOUBLE_EQ(msg.arrival, comm.now());
    }
  });
  // overhead 1e-5 + wire 1e-4 + latency 1e-4 after the 1 s compute.
  EXPECT_NEAR(*recv_time, 1.0 + 1e-5 + 1e-4 + 1e-4, 1e-9);
}

TEST(P2P, SendBeforeRecvIsBuffered) {
  auto machine = Machine::shared_bus(test_cluster(2), fast_params());
  auto recv_time = std::make_shared<double>(0.0);
  machine.run([recv_time](Comm& comm) -> Task<void> {
    if (comm.rank() == 0) {
      co_await comm.send(1, 1, 1000.0, {});
    } else {
      co_await comm.compute(100e6);  // receiver busy for 2 s
      co_await comm.recv(0, 1);
      *recv_time = comm.now();
    }
  });
  // Message long arrived; recv returns at the receiver's own time.
  EXPECT_NEAR(*recv_time, 2.0, 1e-9);
}

TEST(P2P, TagsAreMatchedNotJustOrder) {
  auto machine = Machine::shared_bus(test_cluster(2), fast_params());
  auto order = std::make_shared<std::vector<double>>();
  machine.run([order](Comm& comm) -> Task<void> {
    if (comm.rank() == 0) {
      co_await comm.send(1, /*tag=*/10, 8.0, Payload(1.0));
      co_await comm.send(1, /*tag=*/20, 8.0, Payload(2.0));
    } else {
      // Receive in reverse tag order.
      auto second = co_await comm.recv(0, 20);
      auto first = co_await comm.recv(0, 10);
      order->push_back(second.payload.scalar());
      order->push_back(first.payload.scalar());
    }
  });
  EXPECT_EQ(*order, (std::vector<double>{2.0, 1.0}));
}

TEST(P2P, NonOvertakingSameTag) {
  auto machine = Machine::shared_bus(test_cluster(2), fast_params());
  auto values = std::make_shared<std::vector<double>>();
  machine.run([values](Comm& comm) -> Task<void> {
    if (comm.rank() == 0) {
      for (int i = 0; i < 5; ++i) {
        co_await comm.send(1, 3, 8.0, Payload(1.0 * i));
      }
    } else {
      for (int i = 0; i < 5; ++i) {
        auto msg = co_await comm.recv(0, 3);
        values->push_back(msg.payload.scalar());
      }
    }
  });
  EXPECT_EQ(*values, (std::vector<double>{0.0, 1.0, 2.0, 3.0, 4.0}));
}

// A receive whose message has already arrived finishes without suspending,
// the way Jacobi's root collects its bands. A loop of such receives must
// not nest one frame per message: this many overflow the stack of a build
// that does not compile a coroutine transfer to a tail call (ASan).
TEST(P2P, ReadyReceivesInOneLoopDoNotNest) {
  constexpr int kMessages = 100000;
  constexpr int kDataTag = 1;
  constexpr int kDoneTag = 2;
  auto machine = Machine::switched(test_cluster(2), fast_params());
  auto in_order = std::make_shared<int>(0);
  machine.run([in_order](Comm& comm) -> Task<void> {
    if (comm.rank() == 1) {
      for (int i = 0; i < kMessages; ++i) {
        comm.isend(0, kDataTag, 8.0, Payload(static_cast<double>(i)));
      }
      co_await comm.send(0, kDoneTag, 8.0, {});
    } else {
      // The link is FIFO, so every data message has arrived once this has.
      (void)co_await comm.recv(1, kDoneTag);
      const des::SimTime ready_at = comm.now();
      for (int i = 0; i < kMessages; ++i) {
        const Message message = co_await comm.recv(1, kDataTag);
        if (message.payload.scalar() == static_cast<double>(i)) ++*in_order;
      }
      EXPECT_EQ(comm.now(), ready_at);  // no receive waited
    }
  });
  EXPECT_EQ(*in_order, kMessages);
}

TEST(P2P, MissingSendDeadlocksWithDiagnostic) {
  auto machine = Machine::shared_bus(test_cluster(2), fast_params());
  EXPECT_THROW(machine.run([](Comm& comm) -> Task<void> {
                 if (comm.rank() == 1) co_await comm.recv(0, 1);
               }),
               ModelError);
}

TEST(P2P, SendToSelfRejected) {
  auto machine = Machine::shared_bus(test_cluster(2), fast_params());
  EXPECT_THROW(machine.run([](Comm& comm) -> Task<void> {
                 if (comm.rank() == 0) co_await comm.send(0, 1, 8.0, {});
               }),
               PreconditionError);
}

TEST(P2P, IntraNodeTransfersAreFast) {
  machine::Cluster cluster;
  cluster.add_node("big",
                   machine::NodeSpec{"Test", 2, units::mflops(50), 1e9, 4e8, {1.0}});
  auto machine = Machine::shared_bus(std::move(cluster), fast_params());
  auto arrival = std::make_shared<double>(0.0);
  machine.run([arrival](Comm& comm) -> Task<void> {
    if (comm.rank() == 0) {
      co_await comm.send(1, 1, 1e5, {});
    } else {
      auto msg = co_await comm.recv(0, 1);
      *arrival = msg.arrival;
    }
  });
  // Local path: overhead + 5 us + 1e5/400 MBps = 0.25 ms-ish, far below
  // the remote path's 10 ms wire time.
  EXPECT_LT(*arrival, 1e-3);
}

TEST(P2P, MachineIsSingleShot) {
  auto machine = Machine::shared_bus(test_cluster(2), fast_params());
  machine.run([](Comm&) -> Task<void> { co_return; });
  EXPECT_THROW(machine.run([](Comm&) -> Task<void> { co_return; }),
               PreconditionError);
}

TEST(P2P, RankStatsCountTraffic) {
  auto machine = Machine::shared_bus(test_cluster(2), fast_params());
  const auto result = machine.run([](Comm& comm) -> Task<void> {
    if (comm.rank() == 0) {
      co_await comm.send(1, 1, 100.0, {});
      co_await comm.send(1, 2, 200.0, {});
    } else {
      co_await comm.recv(0, 1);
      co_await comm.recv(0, 2);
    }
  });
  EXPECT_EQ(result.ranks[0].messages_sent, 2u);
  EXPECT_DOUBLE_EQ(result.ranks[0].bytes_sent, 300.0);
  EXPECT_EQ(result.ranks[1].messages_sent, 0u);
  EXPECT_GT(result.ranks[1].comm_s, 0.0);
  EXPECT_EQ(result.network.messages, 2u);
}

}  // namespace
}  // namespace hetscale::vmpi
