#include <gtest/gtest.h>

#include <memory>

#include "hetscale/vmpi/machine.hpp"
#include "test_cluster.hpp"

namespace hetscale::vmpi {
namespace {

using des::Task;

net::NetworkParams slow_params() {
  net::NetworkParams p;
  p.remote = {1e-4, 1e6};  // 1 MB/s: wire time matters
  p.per_message_overhead_s = 1e-5;
  return p;
}

TEST(Isend, DoesNotBlockTheSender) {
  auto machine = Machine::switched(test_cluster(2), slow_params());
  auto sender_time = std::make_shared<double>(-1.0);
  machine.run([sender_time](Comm& comm) -> Task<void> {
    if (comm.rank() == 0) {
      comm.isend(1, 1, 1e6, {});  // 1 s of wire time
      *sender_time = comm.now();  // but we continue immediately
    } else {
      co_await comm.recv(0, 1);
    }
    co_return;
  });
  EXPECT_DOUBLE_EQ(*sender_time, 0.0);
}

TEST(Isend, PayloadStillDelivered) {
  auto machine = Machine::switched(test_cluster(2), slow_params());
  auto got = std::make_shared<double>(0.0);
  machine.run([got](Comm& comm) -> Task<void> {
    if (comm.rank() == 0) {
      comm.isend(1, 3, 100.0, Payload(1234.0));
      co_await comm.compute(1e6);
    } else {
      const auto message = co_await comm.recv(0, 3);
      *got = message.payload.scalar();
    }
  });
  EXPECT_EQ(*got, 1234.0);
}

TEST(Isend, BackToBackIsendsQueueOnTheLink) {
  auto machine = Machine::switched(test_cluster(2), slow_params());
  auto arrivals = std::make_shared<std::vector<double>>();
  machine.run([arrivals](Comm& comm) -> Task<void> {
    if (comm.rank() == 0) {
      comm.isend(1, 1, 1e6, {});
      comm.isend(1, 2, 1e6, {});  // must serialize behind the first
    } else {
      arrivals->push_back((co_await comm.recv(0, 1)).arrival);
      arrivals->push_back((co_await comm.recv(0, 2)).arrival);
    }
    co_return;
  });
  ASSERT_EQ(arrivals->size(), 2u);
  EXPECT_NEAR((*arrivals)[1] - (*arrivals)[0], 1.0, 1e-6);
}

TEST(Isend, OverlapBeatsBlockingSend) {
  auto run = [&](bool overlap) {
    auto machine = Machine::switched(test_cluster(2), slow_params());
    return machine
        .run([overlap](Comm& comm) -> Task<void> {
          if (comm.rank() == 0) {
            if (overlap) {
              comm.isend(1, 1, 1e6, {});
            } else {
              co_await comm.send(1, 1, 1e6, {});
            }
            co_await comm.compute(50e6);  // 1 s of work
          } else {
            co_await comm.recv(0, 1);
          }
        })
        .elapsed;
  };
  const double blocking = run(false);
  const double overlapped = run(true);
  // Blocking: 1 s wire then 1 s compute; overlapped: max of the two.
  EXPECT_NEAR(blocking, 2.0, 0.01);
  EXPECT_NEAR(overlapped, 1.0, 0.01);
}

TEST(Isend, ContractsEnforced) {
  auto machine = Machine::switched(test_cluster(2), slow_params());
  EXPECT_THROW(machine.run([](Comm& comm) -> Task<void> {
                 if (comm.rank() == 0) comm.isend(0, 1, 8.0, {});
                 co_return;
               }),
               PreconditionError);
}

}  // namespace
}  // namespace hetscale::vmpi
