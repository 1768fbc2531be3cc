// allgather and alltoall.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hetscale/vmpi/machine.hpp"
#include "test_cluster.hpp"

namespace hetscale::vmpi {
namespace {

using des::Task;

class ExtendedCollectives : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(WorldSizes, ExtendedCollectives,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

TEST_P(ExtendedCollectives, AllgatherDeliversEveryPartEverywhere) {
  const int p = GetParam();
  auto machine = Machine::switched(test_cluster(p));
  auto ok = std::make_shared<int>(0);
  machine.run([ok](Comm& comm) -> Task<void> {
    auto parts = co_await comm.allgather(8.0, Payload(100.0 + comm.rank()));
    EXPECT_EQ(parts.size(), static_cast<std::size_t>(comm.size()));
    for (int r = 0; r < comm.size(); ++r) {
      EXPECT_EQ(parts[static_cast<std::size_t>(r)].scalar(), 100.0 + r)
          << "at rank " << comm.rank();
    }
    ++*ok;
  });
  EXPECT_EQ(*ok, p);
}

TEST_P(ExtendedCollectives, AlltoallRoutesPersonalizedParts) {
  const int p = GetParam();
  auto machine = Machine::switched(test_cluster(p));
  machine.run([](Comm& comm) -> Task<void> {
    // Rank r sends 1000*r + d to destination d.
    std::vector<Payload> parts;
    std::vector<double> bytes;
    for (int d = 0; d < comm.size(); ++d) {
      parts.emplace_back(1000.0 * comm.rank() + d);
      bytes.push_back(8.0);
    }
    auto received = co_await comm.alltoall(bytes, std::move(parts));
    for (int s = 0; s < comm.size(); ++s) {
      EXPECT_EQ(received[static_cast<std::size_t>(s)].scalar(),
                1000.0 * s + comm.rank());
    }
  });
}

TEST(ExtendedCollectives, AllgatherBandwidthScalesWithRing) {
  // Ring allgather on a switched fabric: total time ~ (p-1)(o + m/B + L),
  // independent of which rank you ask — and the whole payload set arrives
  // in p-1 rounds, not p(p-1)/2 point-to-point exchanges.
  auto time_for = [&](int p) {
    auto machine = Machine::switched(test_cluster(p));
    auto latest = std::make_shared<double>(0.0);
    machine.run([latest](Comm& comm) -> Task<void> {
      co_await comm.allgather(1e4, Payload(1.0 * comm.rank()));
      *latest = std::max(*latest, comm.now());
    });
    return *latest;
  };
  const double t4 = time_for(4);
  const double t8 = time_for(8);
  EXPECT_NEAR(t8 / t4, 7.0 / 3.0, 0.3);
}

TEST(ExtendedCollectives, AlltoallValidatesShapes) {
  auto machine = Machine::switched(test_cluster(3));
  EXPECT_THROW(
      machine.run([](Comm& comm) -> Task<void> {
        std::vector<Payload> parts(1);  // wrong: need one per rank
        std::vector<double> bytes(1, 8.0);
        co_await comm.alltoall(bytes, std::move(parts));
      }),
      PreconditionError);
}

}  // namespace
}  // namespace hetscale::vmpi
