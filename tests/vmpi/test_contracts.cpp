// API-contract checks: every documented precondition of the runtime
// actually fires, with the failure surfacing from Machine::run as a typed
// exception (coroutine exceptions propagate through the scheduler).
#include <gtest/gtest.h>

#include <string>

#include "hetscale/support/error.hpp"
#include "hetscale/vmpi/machine.hpp"
#include "test_cluster.hpp"

namespace hetscale::vmpi {
namespace {

using des::Task;

template <class Body>
void expect_rejected(Body&& body) {
  auto machine = Machine::switched(test_cluster(3));
  EXPECT_THROW(
      machine.run([&body](Comm& comm) -> Task<void> {
        if (comm.rank() == 0) co_await body(comm);
      }),
      PreconditionError);
}

TEST(Contracts, SendDestinationOutOfRange) {
  expect_rejected([](Comm& comm) { return comm.send(9, 1, 8.0, {}); });
  expect_rejected([](Comm& comm) { return comm.send(-1, 1, 8.0, {}); });
}

TEST(Contracts, RecvSourceOutOfRange) {
  expect_rejected([](Comm& comm) { return comm.recv(17, 1); });
}

// No receive can name a negative tag, so a message carrying one could
// never be taken; sends reject it outright.
TEST(Contracts, SendRejectsNegativeTag) {
  expect_rejected([](Comm& comm) { return comm.send(1, -1, 8.0, {}); });
  expect_rejected([](Comm& comm) { return comm.send(1, -7, 8.0, {}); });
  expect_rejected([](Comm& comm) -> Task<void> {
    comm.isend(1, -1, 8.0, {});
    co_return;
  });
}

TEST(Contracts, RecvRejectsNegativeTag) {
  expect_rejected([](Comm& comm) { return comm.recv(1, -2); });
  expect_rejected([](Comm& comm) { return comm.recv(1, -1); });
}

TEST(Contracts, BcastRootOutOfRange) {
  expect_rejected([](Comm& comm) { return comm.bcast(5, 8.0, {}); });
}

TEST(Contracts, GatherRootOutOfRange) {
  expect_rejected([](Comm& comm) { return comm.gather(-2, 8.0, {}); });
}

TEST(Contracts, ComputeRejectsBadEfficiency) {
  expect_rejected(
      [](Comm& comm) { return comm.compute(1e6, /*efficiency=*/0.0); });
}

TEST(Contracts, NegativeBytesRejectedByNetwork) {
  expect_rejected([](Comm& comm) { return comm.send(1, 1, -8.0, {}); });
}

TEST(Contracts, MachineRejectsNullNetwork) {
  EXPECT_THROW(Machine(test_cluster(3), nullptr), PreconditionError);
}

TEST(Contracts, MachineRejectsEmptyCluster) {
  EXPECT_THROW(Machine::switched(machine::Cluster{}), PreconditionError);
}

TEST(Contracts, RankAccessorsValidateRange) {
  auto machine = Machine::switched(test_cluster(3));
  EXPECT_THROW(machine.processor(3), PreconditionError);
  EXPECT_THROW(machine.mailbox(-1), PreconditionError);
  EXPECT_THROW(machine.rank_stats(99), PreconditionError);
}

TEST(Contracts, QuiescenceWithPendingReceiverDiagnosesTheWait) {
  auto machine = Machine::switched(test_cluster(3));
  try {
    machine.run([](Comm& comm) -> Task<void> {
      // Rank 0 waits on a tag nobody ever sends: mailbox exhaustion.
      if (comm.rank() == 0) co_await comm.recv(1, /*tag=*/7);
    });
    FAIL() << "expected a deadlock diagnosis";
  } catch (const des::DeadlockError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("rank 0 blocked in recv(source=1, tag=7)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("0 pending unmatched message"), std::string::npos)
        << what;
    EXPECT_NE(what.find("matching receive"), std::string::npos) << what;
  }
}

TEST(Contracts, TagMismatchDiagnosisNamesThePendingMessage) {
  auto machine = Machine::switched(test_cluster(3));
  try {
    machine.run([](Comm& comm) -> Task<void> {
      // Rank 1 posts tag 3; rank 0 waits for tag 7 — the message sits
      // unmatched in the mailbox while the receiver starves.
      if (comm.rank() == 1) co_await comm.send(0, /*tag=*/3, 8.0, {});
      if (comm.rank() == 0) co_await comm.recv(1, /*tag=*/7);
    });
    FAIL() << "expected a deadlock diagnosis";
  } catch (const des::DeadlockError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("rank 0 blocked in recv(source=1, tag=7)"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("1 pending unmatched message"), std::string::npos)
        << what;
  }
}

TEST(Contracts, FailureInOneRankSurfacesWithoutHangingOthers) {
  auto machine = Machine::switched(test_cluster(3));
  EXPECT_THROW(machine.run([](Comm& comm) -> Task<void> {
                 if (comm.rank() == 1) {
                   co_await comm.compute(-1.0);  // violates the contract
                 } else {
                   co_await comm.compute(1e6);  // others complete fine
                 }
               }),
               PreconditionError);
}

}  // namespace
}  // namespace hetscale::vmpi
