// The partitioned simulation core (--sim-threads > 1): bit-identity with
// the one-partition schedule, the partition-count rule, and the
// partitioned failure paths.
//
// Every comparison here is exact (EXPECT_EQ on doubles, not EXPECT_NEAR):
// the conservative window protocol's whole contract is that partitioning
// changes host scheduling only, never a single simulated bit.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hetscale/support/error.hpp"
#include "hetscale/support/units.hpp"
#include "hetscale/vmpi/machine.hpp"

namespace hetscale::vmpi {
namespace {

using des::Task;

machine::Cluster node_per_rank(int nodes, double mflops = 50.0) {
  machine::Cluster cluster;
  for (int i = 0; i < nodes; ++i) {
    cluster.add_node(
        "n" + std::to_string(i),
        machine::NodeSpec{"Test", 1, units::mflops(mflops), 1e9, 4e8, {1.0}});
  }
  return cluster;
}

net::NetworkParams fast_params() {
  net::NetworkParams p;
  p.remote = {1e-4, 1e7};
  p.per_message_overhead_s = 1e-5;
  return p;
}

void expect_same_result(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.elapsed, b.elapsed);  // bit-equal, not approximately
  ASSERT_EQ(a.ranks.size(), b.ranks.size());
  for (std::size_t r = 0; r < a.ranks.size(); ++r) {
    EXPECT_EQ(a.ranks[r].compute_s, b.ranks[r].compute_s) << "rank " << r;
    EXPECT_EQ(a.ranks[r].comm_s, b.ranks[r].comm_s) << "rank " << r;
    EXPECT_EQ(a.ranks[r].messages_sent, b.ranks[r].messages_sent);
    EXPECT_EQ(a.ranks[r].bytes_sent, b.ranks[r].bytes_sent);
    EXPECT_EQ(a.ranks[r].finish, b.ranks[r].finish) << "rank " << r;
  }
  EXPECT_EQ(a.network.messages, b.network.messages);
  EXPECT_EQ(a.network.bytes, b.network.bytes);
  EXPECT_EQ(a.network.wire_seconds, b.network.wire_seconds);
  EXPECT_EQ(a.network.contention_seconds, b.network.contention_seconds);
  ASSERT_EQ(a.network.links.size(), b.network.links.size());
  auto ita = a.network.links.begin();
  auto itb = b.network.links.begin();
  for (; ita != a.network.links.end(); ++ita, ++itb) {
    EXPECT_EQ(ita->first, itb->first);
    EXPECT_EQ(ita->second.bytes, itb->second.bytes);
    EXPECT_EQ(ita->second.wire_s, itb->second.wire_s);
    EXPECT_EQ(ita->second.stall_s, itb->second.stall_s);
  }
}

/// A mixed workload touching every delivery path: ring p2p with unequal
/// compute, a broadcast, a reduction, and a gather.
Machine::Program mixed_program() {
  return [](Comm& comm) -> Task<void> {
    const int p = comm.size();
    const int next = (comm.rank() + 1) % p;
    const int prev = (comm.rank() + p - 1) % p;
    for (int round = 0; round < 3; ++round) {
      co_await comm.compute(1e6 * (comm.rank() + 1));
      co_await comm.send(next, 10 + round, 256.0,
                         Payload(static_cast<double>(comm.rank())));
      const auto msg = co_await comm.recv(prev, 10 + round);
      EXPECT_EQ(msg.payload.scalar(), static_cast<double>(prev));
    }
    Payload seed;
    if (comm.rank() == 0) seed = Payload(42.0);
    const auto root_value = co_await comm.bcast(0, 64.0, std::move(seed));
    EXPECT_EQ(root_value.scalar(), 42.0);
    const double sum =
        co_await comm.reduce_sum(0, static_cast<double>(comm.rank()));
    if (comm.rank() == 0) {
      EXPECT_EQ(sum, static_cast<double>(p * (p - 1) / 2));
    }
    const auto parts = co_await comm.gather(
        0, 128.0, Payload(static_cast<double>(comm.rank() * 3)));
    if (comm.rank() == 0) {
      EXPECT_EQ(parts.size(), static_cast<std::size_t>(p));
      for (std::size_t r = 0; r < parts.size(); ++r) {
        EXPECT_EQ(parts[r].scalar(), static_cast<double>(r * 3));
      }
    }
    co_await comm.barrier();
  };
}

RunResult run_mixed(int ranks, int sim_threads) {
  auto machine = Machine::switched(node_per_rank(ranks), fast_params());
  machine.set_sim_threads(sim_threads);
  return machine.run(mixed_program());
}

TEST(Partitioned, MixedWorkloadBitIdenticalAcrossSimThreads) {
  const RunResult sequential = run_mixed(8, 1);
  expect_same_result(sequential, run_mixed(8, 2));
  expect_same_result(sequential, run_mixed(8, 3));  // uneven partitions
  expect_same_result(sequential, run_mixed(8, 8));
}

TEST(Partitioned, ThreadCountBeyondWorldSizeClamps) {
  const RunResult sequential = run_mixed(4, 1);
  expect_same_result(sequential, run_mixed(4, 64));
}

TEST(Partitioned, EventsProcessedSumsThePartitionSchedulers) {
  const auto events_at = [](int sim_threads) {
    auto machine = Machine::switched(node_per_rank(8), fast_params());
    machine.set_sim_threads(sim_threads);
    (void)machine.run(mixed_program());
    EXPECT_EQ(machine.partitions(), sim_threads);
    return machine.events_processed();
  };
  // Partitioning splits the event stream; it neither adds nor drops events.
  const std::uint64_t sequential = events_at(1);
  EXPECT_GT(sequential, 0u);
  EXPECT_EQ(events_at(4), sequential);
}

TEST(Partitioned, TreeCollectivesBitIdenticalAtScale) {
  const auto run_tree = [](int sim_threads) {
    auto machine = Machine::switched(node_per_rank(32), fast_params(),
                                     CollectiveTuning::tree());
    machine.set_sim_threads(sim_threads);
    return machine.run([](Comm& comm) -> Task<void> {
      for (int round = 0; round < 2; ++round) {
        Payload seed;
        if (comm.rank() == 0) seed = Payload(1.5);
        (void)co_await comm.bcast(0, 64.0, std::move(seed));
        (void)co_await comm.reduce_sum(0, 1.0);
        (void)co_await comm.gather(0, 32.0, Payload(2.0));
        co_await comm.barrier();
      }
    });
  };
  const RunResult sequential = run_tree(1);
  expect_same_result(sequential, run_tree(8));
}

TEST(Partitioned, RoundedArrivalStaysOutOfItsSendWindow) {
  // 97161 flops at 50 Mflop/s end at t = 0.00194322, where the rounded
  // arrival (t + overhead) + latency of a zero-byte message falls one ulp
  // short of t + lookahead. Rank 2 (partition 1) is woken by rank 3's
  // token at exactly that arrival and then receives rank 0's token, sent
  // from partition 0 at the same instant: the window must already have
  // delivered it, as the sequential schedule has.
  const auto run_tokens = [](int sim_threads) {
    auto machine = Machine::switched(node_per_rank(4), fast_params());
    machine.set_sim_threads(sim_threads);
    const RunResult result = machine.run([](Comm& comm) -> Task<void> {
      if (comm.rank() == 0 || comm.rank() == 3) {
        co_await comm.compute(97161.0);
        co_await comm.send(2, comm.rank(), 0.0, {});
      } else if (comm.rank() == 2) {
        (void)co_await comm.recv(3, 3);
        (void)co_await comm.recv(0, 0);
      }
    });
    return std::pair{result, machine.events_processed()};
  };
  const auto [sequential, sequential_events] = run_tokens(1);
  const auto [partitioned, partitioned_events] = run_tokens(2);
  expect_same_result(sequential, partitioned);
  EXPECT_EQ(partitioned_events, sequential_events);
}

TEST(Partitioned, WildcardRecvRejected) {
  auto machine = Machine::switched(node_per_rank(2), fast_params());
  machine.set_sim_threads(2);
  try {
    machine.run([](Comm& comm) -> Task<void> {
      if (comm.rank() == 0) {
        co_await comm.send(1, 5, 64.0, {});
      } else {
        (void)co_await comm.recv(kAnySource, 5);
      }
    });
    FAIL() << "wildcard recv should be rejected when partitioned";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find("wildcard"), std::string::npos);
  }
}

TEST(Partitioned, SpecificSourceRecvStillWorks) {
  // The same exchange with the source named is fine under partitioning.
  auto machine = Machine::switched(node_per_rank(2), fast_params());
  machine.set_sim_threads(2);
  auto value = std::make_shared<double>(0.0);
  machine.run([value](Comm& comm) -> Task<void> {
    if (comm.rank() == 0) {
      co_await comm.send(1, 5, 64.0, Payload(7.0));
    } else {
      const auto msg = co_await comm.recv(0, 5);
      *value = msg.payload.scalar();
    }
  });
  EXPECT_EQ(*value, 7.0);
}

TEST(Partitioned, DeadlockDiagnosisNamesTheBlockedRank) {
  auto machine = Machine::switched(node_per_rank(4), fast_params());
  machine.set_sim_threads(2);
  try {
    machine.run([](Comm& comm) -> Task<void> {
      if (comm.rank() == 3) {
        (void)co_await comm.recv(0, 99);  // nobody sends tag 99
      }
      co_return;
    });
    FAIL() << "expected a deadlock";
  } catch (const des::DeadlockError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("matching receive"), std::string::npos) << what;
  }
}

TEST(Partitioned, SharedBusRunsOnePartition) {
  // A shared bus has no per-link latency floor (lookahead 0), so the
  // machine runs one partition whatever --sim-threads says — and matches
  // a sim-threads=1 shared-bus run exactly.
  const auto run_bus = [](int sim_threads) {
    auto machine = Machine::shared_bus(node_per_rank(4), fast_params());
    machine.set_sim_threads(sim_threads);
    EXPECT_EQ(machine.partitions(), 1);
    return machine.run(mixed_program());
  };
  const RunResult sequential = run_bus(1);
  expect_same_result(sequential, run_bus(8));
}

TEST(Partitioned, RanksSharingANodeRunOnePartition) {
  // Two ranks on one node share its injection port, so the machine keeps
  // every rank on one partition.
  const auto run_duo = [](int sim_threads) {
    machine::Cluster cluster;
    cluster.add_node("duo", machine::NodeSpec{"Test", 2, units::mflops(50.0),
                                              1e9, 4e8, {1.0}});
    cluster.add_node("solo", machine::NodeSpec{"Test", 1, units::mflops(50.0),
                                               1e9, 4e8, {1.0}});
    auto machine = Machine::switched(cluster, fast_params());
    machine.set_sim_threads(sim_threads);
    EXPECT_EQ(machine.partitions(), 1);
    return machine.run(mixed_program());
  };
  expect_same_result(run_duo(1), run_duo(3));
}

TEST(Partitioned, SetSimThreadsValidates) {
  auto machine = Machine::switched(node_per_rank(2), fast_params());
  EXPECT_THROW(machine.set_sim_threads(0), Error);
  machine.set_sim_threads(2);
  (void)machine.run([](Comm&) -> Task<void> { co_return; });
  EXPECT_THROW(machine.set_sim_threads(4), Error);
}

}  // namespace
}  // namespace hetscale::vmpi
