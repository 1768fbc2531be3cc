// Property sweeps over randomly generated heterogeneous systems: the core
// invariants must hold for ANY node mix, not just the Sunwulf catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "hetscale/algos/ge.hpp"
#include "hetscale/algos/mm.hpp"
#include "hetscale/algos/sort.hpp"
#include "hetscale/machine/cluster.hpp"
#include "hetscale/numeric/linsolve.hpp"
#include "hetscale/numeric/matmul.hpp"
#include "hetscale/numeric/matrix.hpp"
#include "hetscale/support/rng.hpp"
#include "hetscale/support/units.hpp"
#include "hetscale/vmpi/machine.hpp"

namespace hetscale {
namespace {

/// A random heterogeneous cluster: 2-6 nodes, 1-2 CPUs each, rates in
/// [10, 120] Mflops, flat benchmark bias (marked speed == rate).
machine::Cluster random_cluster(std::uint64_t seed) {
  Rng rng(seed);
  machine::Cluster cluster;
  const int nodes = static_cast<int>(rng.uniform_int(2, 6));
  for (int i = 0; i < nodes; ++i) {
    machine::NodeSpec spec;
    spec.model = "Rnd" + std::to_string(i);
    spec.cpus = static_cast<int>(rng.uniform_int(1, 2));
    spec.cpu_rate_flops = units::mflops(rng.uniform(10.0, 120.0));
    spec.memory_bytes = 1e9;
    spec.memory_bandwidth_Bps = 4e8;
    spec.benchmark_bias = {1.0, 1.0, 1.0, 1.0, 1.0};
    cluster.add_node("rnd-" + std::to_string(i), spec);
  }
  return cluster;
}

class RandomSystems : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, RandomSystems,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

TEST_P(RandomSystems, GeSolvesAndChargesExactWorkload) {
  auto machine = vmpi::Machine::switched(random_cluster(GetParam()));
  algos::GeOptions options;
  options.n = 48;
  options.seed = GetParam();
  const auto result = algos::run_parallel_ge(machine, options);
  EXPECT_LT(result.residual, 1e-8);
  EXPECT_DOUBLE_EQ(result.charged_flops, result.work_flops);
}

TEST_P(RandomSystems, MmMultipliesAndChargesExactWorkload) {
  auto machine = vmpi::Machine::switched(random_cluster(GetParam()));
  algos::MmOptions options;
  options.n = 24;
  options.seed = GetParam();
  const auto result = algos::run_parallel_mm(machine, options);
  EXPECT_LT(numeric::max_abs_diff(result.c,
                                  numeric::multiply(result.a, result.b)),
            1e-10);
  EXPECT_DOUBLE_EQ(result.charged_flops, result.work_flops);
}

TEST_P(RandomSystems, SortSortsAndChargesWorkload) {
  auto cluster = random_cluster(GetParam());
  const int p = cluster.processor_count();
  auto machine = vmpi::Machine::switched(std::move(cluster));
  algos::SortOptions options;
  options.n = std::max<std::int64_t>(512, 2 * p * p);
  options.seed = GetParam();
  const auto result = algos::run_parallel_sort(machine, options);
  EXPECT_TRUE(std::is_sorted(result.sorted.begin(), result.sorted.end()));
  EXPECT_EQ(result.sorted.size(), static_cast<std::size_t>(options.n));
  EXPECT_NEAR(result.charged_flops, result.work_flops,
              1e-9 * result.work_flops);
}

TEST_P(RandomSystems, GeTimingInvariantUnderWithData) {
  auto m1 = vmpi::Machine::switched(random_cluster(GetParam()));
  auto m2 = vmpi::Machine::switched(random_cluster(GetParam()));
  algos::GeOptions with;
  with.n = 32;
  algos::GeOptions without = with;
  without.with_data = false;
  EXPECT_EQ(algos::run_parallel_ge(m1, with).run.elapsed,
            algos::run_parallel_ge(m2, without).run.elapsed);
}

TEST_P(RandomSystems, ElapsedEqualsSchedulerDrainTime) {
  auto machine = vmpi::Machine::switched(random_cluster(GetParam()));
  algos::MmOptions options;
  options.n = 20;
  options.with_data = false;
  const auto result = algos::run_parallel_mm(machine, options);
  // The last rank to return drains the schedule: elapsed is exactly its
  // finish time, and no rank finishes after it.
  double last_finish = 0.0;
  for (const auto& rank : result.run.ranks) {
    EXPECT_LE(rank.finish, result.run.elapsed);
    last_finish = std::max(last_finish, rank.finish);
  }
  EXPECT_EQ(result.run.elapsed, last_finish);
  EXPECT_GT(machine.events_processed(), 0u);
}

}  // namespace
}  // namespace hetscale
