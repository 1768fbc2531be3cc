// Group (sub-communicator) semantics: member addressing by group index,
// bcast over a rank subset, and concurrent broadcasts on disjoint groups
// sharing one tag — the exact pattern SUMMA's row/column panel exchanges
// rely on.
#include "hetscale/vmpi/group.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hetscale/support/error.hpp"
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

constexpr int kTag = 7;

TEST(Group, IndexAndWorldRankAgree) {
  auto machine = Machine::shared_bus(test_cluster(4), fast_params());
  machine.run([](Comm& comm) -> Task<void> {
    if (comm.rank() % 2 != 0) co_return;
    Group evens(comm, {0, 2});
    EXPECT_EQ(evens.size(), 2);
    EXPECT_EQ(evens.rank(), comm.rank() / 2);
    EXPECT_EQ(evens.world_rank(0), 0);
    EXPECT_EQ(evens.world_rank(1), 2);
  });
}

TEST(Group, BcastReachesOnlyTheMembers) {
  auto machine = Machine::shared_bus(test_cluster(5), fast_params());
  auto got = std::make_shared<std::vector<double>>(5, -1.0);
  machine.run([got](Comm& comm) -> Task<void> {
    if (comm.rank() == 2) co_return;  // not a member; must not be touched
    Group group(comm, {0, 1, 3, 4});
    Payload payload;
    if (group.rank() == 1) payload = Payload(4321.0);
    const Payload out =
        co_await group.bcast(/*root_index=*/1, kTag, 8.0, std::move(payload));
    (*got)[static_cast<std::size_t>(comm.rank())] = out.scalar();
  });
  EXPECT_EQ(*got, (std::vector<double>{4321.0, 4321.0, -1.0, 4321.0, 4321.0}));
}

TEST(Group, DisjointGroupsShareOneTagSafely) {
  // Two simultaneous bcasts, one per "grid row", both on kTag. Disjoint
  // membership must keep the matching unambiguous.
  auto machine = Machine::shared_bus(test_cluster(4), fast_params());
  auto got = std::make_shared<std::vector<double>>(4, -1.0);
  machine.run([got](Comm& comm) -> Task<void> {
    const bool low = comm.rank() < 2;
    Group row(comm, low ? std::vector<int>{0, 1} : std::vector<int>{2, 3});
    Payload payload;
    if (row.rank() == 0) payload = Payload(low ? 100.0 : 200.0);
    const Payload out =
        co_await row.bcast(/*root_index=*/0, kTag, 8.0, std::move(payload));
    (*got)[static_cast<std::size_t>(comm.rank())] = out.scalar();
  });
  EXPECT_EQ(*got, (std::vector<double>{100.0, 100.0, 200.0, 200.0}));
}

TEST(Group, SingletonCollectivesAreLocal) {
  auto machine = Machine::shared_bus(test_cluster(2), fast_params());
  const RunResult result = machine.run([](Comm& comm) -> Task<void> {
    Group solo(comm, {comm.rank()});
    const Payload out =
        co_await solo.bcast(0, kTag, 1e9, Payload(1.0 * comm.rank()));
    EXPECT_EQ(out.scalar(), 1.0 * comm.rank());
  });
  // Payload-size 1e9 over the slow bus would dominate the clock if a
  // singleton broadcast actually touched the network.
  EXPECT_LT(result.elapsed, 1.0);
}

TEST(Group, InvalidMembershipRejected) {
  auto machine = Machine::shared_bus(test_cluster(3), fast_params());
  machine.run([](Comm& comm) -> Task<void> {
    if (comm.rank() != 0) co_return;
    EXPECT_THROW(Group(comm, {1, 2}), PreconditionError);     // caller absent
    EXPECT_THROW(Group(comm, {0, 0, 1}), PreconditionError);  // duplicate
    EXPECT_THROW(Group(comm, {0, 3}), PreconditionError);     // out of range
    co_return;
  });
}

}  // namespace
}  // namespace hetscale::vmpi
