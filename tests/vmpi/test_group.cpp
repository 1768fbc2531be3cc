// Group (sub-communicator) semantics: member addressing by group index,
// bcast/gather over a rank subset, and concurrent collectives on disjoint
// groups sharing one tag — the exact pattern SUMMA's row/column panel
// exchanges rely on.
#include "hetscale/vmpi/group.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "hetscale/support/error.hpp"
#include "hetscale/support/units.hpp"
#include "hetscale/vmpi/machine.hpp"

namespace hetscale::vmpi {
namespace {

using des::Task;

machine::Cluster test_cluster(int nodes) {
  machine::Cluster cluster;
  for (int i = 0; i < nodes; ++i) {
    cluster.add_node(
        "n" + std::to_string(i),
        machine::NodeSpec{"Test", 1, units::mflops(50.0), 1e9, 4e8, {1.0}});
  }
  return cluster;
}

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
  auto got = std::make_shared<std::vector<int>>(5, -1);
  machine.run([got](Comm& comm) -> Task<void> {
    if (comm.rank() == 2) co_return;  // not a member; must not be touched
    Group group(comm, {0, 1, 3, 4});
    Payload payload;
    if (group.rank() == 1) payload = Payload(4321);
    const Payload out =
        co_await group.bcast(/*root_index=*/1, kTag, 8.0, std::move(payload));
    (*got)[static_cast<std::size_t>(comm.rank())] = out.as<int>();
  });
  EXPECT_EQ(*got, (std::vector<int>{4321, 4321, -1, 4321, 4321}));
}

TEST(Group, GatherOrdersPartsByGroupIndex) {
  auto machine = Machine::shared_bus(test_cluster(4), fast_params());
  auto parts_seen = std::make_shared<std::vector<int>>();
  machine.run([parts_seen](Comm& comm) -> Task<void> {
    if (comm.rank() == 0) co_return;
    // Members deliberately out of world order: group index != world rank.
    Group group(comm, {3, 1, 2});
    auto parts = co_await group.gather(/*root_index=*/0, kTag, 8.0,
                                       Payload(comm.rank() * 10));
    if (group.rank() == 0) {
      for (const auto& part : parts) parts_seen->push_back(part.as<int>());
    } else {
      EXPECT_TRUE(parts.empty());
    }
  });
  EXPECT_EQ(*parts_seen, (std::vector<int>{30, 10, 20}));
}

TEST(Group, DisjointGroupsShareOneTagSafely) {
  // Two simultaneous bcasts, one per "grid row", both on kTag. Disjoint
  // membership must keep the matching unambiguous.
  auto machine = Machine::shared_bus(test_cluster(4), fast_params());
  auto got = std::make_shared<std::vector<int>>(4, -1);
  machine.run([got](Comm& comm) -> Task<void> {
    const bool low = comm.rank() < 2;
    Group row(comm, low ? std::vector<int>{0, 1} : std::vector<int>{2, 3});
    Payload payload;
    if (row.rank() == 0) payload = Payload(low ? 100 : 200);
    const Payload out =
        co_await row.bcast(/*root_index=*/0, kTag, 8.0, std::move(payload));
    (*got)[static_cast<std::size_t>(comm.rank())] = out.as<int>();
  });
  EXPECT_EQ(*got, (std::vector<int>{100, 100, 200, 200}));
}

TEST(Group, SingletonCollectivesAreLocal) {
  auto machine = Machine::shared_bus(test_cluster(2), fast_params());
  const RunResult result = machine.run([](Comm& comm) -> Task<void> {
    Group solo(comm, {comm.rank()});
    const Payload out =
        co_await solo.bcast(0, kTag, 1e9, Payload(comm.rank()));
    EXPECT_EQ(out.as<int>(), comm.rank());
    auto parts = co_await solo.gather(0, kTag, 1e9, Payload(7));
    EXPECT_EQ(parts.size(), 1u);  // ASSERT_* cannot `return` in a coroutine
    if (parts.size() == 1u) EXPECT_EQ(parts[0].as<int>(), 7);
  });
  // Payload-size 1e9 over the slow bus would dominate the clock if a
  // singleton collective actually touched the network.
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
