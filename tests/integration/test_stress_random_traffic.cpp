// Randomized stress of the DES + vmpi stack: many ranks, random
// point-to-point traffic and random collectives, with self-checking
// invariants (token conservation, delivery exactness, virtual-time
// monotonicity). Deterministic per seed.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hetscale/support/rng.hpp"
#include "hetscale/support/units.hpp"
#include "hetscale/vmpi/machine.hpp"

namespace hetscale::vmpi {
namespace {

using des::Task;

machine::Cluster random_cluster(Rng& rng, int nodes) {
  machine::Cluster cluster;
  for (int i = 0; i < nodes; ++i) {
    machine::NodeSpec spec;
    std::string model = "S";  // not "S" + ...: GCC 12's false -Wrestrict
    model += std::to_string(i);
    spec.model = std::move(model);
    spec.cpus = 1;
    spec.cpu_rate_flops = units::mflops(rng.uniform(5.0, 200.0));
    spec.memory_bytes = 1e9;
    spec.benchmark_bias = {1.0};
    cluster.add_node("s-" + std::to_string(i), spec);
  }
  return cluster;
}

struct StressPlan {
  // exchange[r][k] = amount rank r sends to peer (r + k) mod p in round k.
  std::vector<std::vector<double>> amounts;
  std::vector<double> compute_flops;
  int rounds = 0;
};

StressPlan make_plan(Rng& rng, int p, int rounds) {
  StressPlan plan;
  plan.rounds = rounds;
  plan.amounts.resize(static_cast<std::size_t>(p));
  for (auto& per_round : plan.amounts) {
    for (int k = 0; k < rounds; ++k) {
      per_round.push_back(rng.uniform(1.0, 100.0));
    }
  }
  for (int r = 0; r < p; ++r) {
    plan.compute_flops.push_back(rng.uniform(1e5, 5e6));
  }
  return plan;
}

/// Every rank alternates compute, a shifted exchange of "credits", and an
/// occasional collective; at the end the global credit sum must be exactly
/// preserved and every rank's clock must have advanced monotonically.
Task<void> stress_rank(Comm& comm, const StressPlan& plan,
                       std::vector<double>& credits,
                       std::vector<double>& final_time) {
  constexpr int kTag = 500;
  const int rank = comm.rank();
  const int p = comm.size();
  double credit = 1000.0;
  double last_time = comm.now();

  for (int round = 0; round < plan.rounds; ++round) {
    co_await comm.compute(
        plan.compute_flops[static_cast<std::size_t>(rank)]);
    EXPECT_GE(comm.now(), last_time);
    last_time = comm.now();

    const int dst = (rank + round + 1) % p;
    const int src = (rank - round - 1 + p * plan.rounds) % p;
    if (dst != rank) {
      const double sent =
          plan.amounts[static_cast<std::size_t>(rank)]
                      [static_cast<std::size_t>(round)];
      credit -= sent;
      co_await comm.send(dst, kTag + round, 64.0, Payload(sent));
      const auto message = co_await comm.recv(src, kTag + round);
      credit += message.payload.scalar();
    }
    if (round % 3 == 2) {
      const std::vector<Payload> all =
          co_await comm.gather(0, 8.0, Payload(credit));
      double total = 0.0;
      for (const Payload& part : all) total += part.scalar();
      if (rank == 0) {
        EXPECT_NEAR(total, 1000.0 * p, 1e-6);
      }
    }
  }
  credits[static_cast<std::size_t>(rank)] = credit;
  final_time[static_cast<std::size_t>(rank)] = comm.now();
}

class StressSeeds : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, StressSeeds,
                         ::testing::Values(1, 7, 23, 99, 12345));

TEST_P(StressSeeds, CreditsConservedUnderRandomTraffic) {
  Rng rng(GetParam());
  const int nodes = static_cast<int>(rng.uniform_int(3, 12));
  const int rounds = static_cast<int>(rng.uniform_int(4, 12));
  auto cluster = random_cluster(rng, nodes);
  const auto plan = make_plan(rng, nodes, rounds);

  auto machine = Machine::switched(std::move(cluster));
  auto credits = std::make_shared<std::vector<double>>(nodes, 0.0);
  auto times = std::make_shared<std::vector<double>>(nodes, 0.0);
  machine.run([&plan, credits, times](Comm& comm) -> Task<void> {
    return stress_rank(comm, plan, *credits, *times);
  });

  double total = 0.0;
  for (double credit : *credits) total += credit;
  EXPECT_NEAR(total, 1000.0 * nodes, 1e-6);
  for (double t : *times) EXPECT_GT(t, 0.0);
}

TEST_P(StressSeeds, BitIdenticalReplay) {
  auto run_once = [&] {
    Rng rng(GetParam());
    const int nodes = static_cast<int>(rng.uniform_int(3, 12));
    const int rounds = static_cast<int>(rng.uniform_int(4, 12));
    auto cluster = random_cluster(rng, nodes);
    const auto plan = make_plan(rng, nodes, rounds);
    auto machine = Machine::switched(std::move(cluster));
    auto credits = std::make_shared<std::vector<double>>(nodes, 0.0);
    auto times = std::make_shared<std::vector<double>>(nodes, 0.0);
    machine.run([&plan, credits, times](Comm& comm) -> Task<void> {
      return stress_rank(comm, plan, *credits, *times);
    });
    return std::make_pair(*credits, *times);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.first, b.first);    // exact, not approximate
  EXPECT_EQ(a.second, b.second);
}

}  // namespace
}  // namespace hetscale::vmpi
