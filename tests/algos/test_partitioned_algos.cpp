// Every algorithm, partitioned: each workload must produce bit-identical
// results — virtual time, charged flops, and the real data it computed —
// whether the machine simulates sequentially or across partition threads.
//
// This is also the suite that puts every algorithm's shared-state
// discipline under TSan in CI: rank coroutines run on partition threads
// here, so any cross-rank write that is not a message, a root-only
// section, or a per-rank slot (see src/algos/src/charge_ledger.hpp) is a
// reported race.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hetscale/algos/ge.hpp"
#include "hetscale/algos/ge_pivot.hpp"
#include "hetscale/algos/jacobi.hpp"
#include "hetscale/algos/mm.hpp"
#include "hetscale/algos/sort.hpp"
#include "hetscale/algos/spmv.hpp"
#include "hetscale/algos/summa.hpp"
#include "hetscale/machine/cluster.hpp"
#include "hetscale/support/units.hpp"
#include "hetscale/vmpi/machine.hpp"

namespace hetscale::algos {
namespace {

constexpr int kRanks = 4;
constexpr int kThreads = 4;

/// Explicit unequal marked speeds: drives the heterogeneous distributions
/// without running the marked benchmark suite on the synthetic nodes.
std::vector<double> test_speeds() { return {30.0, 40.0, 50.0, 40.0}; }

/// One rank per node, unequal speeds, switched network: a configuration
/// that partitions, with a heterogeneous distribution. Machines
/// are single-shot and non-movable, so each run builds one in place and
/// hands it straight to the algorithm.
machine::Cluster test_cluster() {
  machine::Cluster cluster;
  for (int i = 0; i < kRanks; ++i) {
    std::string name = "n";  // not "n" + ...: GCC 12's false -Wrestrict
    name += std::to_string(i);
    cluster.add_node(
        name, machine::NodeSpec{"Test", 1, units::mflops(40.0 + 10.0 * (i % 3)),
                                1e9, 4e8, {1.0}});
  }
  return cluster;
}

net::NetworkParams test_params() {
  net::NetworkParams params;
  params.remote = {1e-4, 1e7};
  params.per_message_overhead_s = 1e-5;
  return params;
}

/// Run `algo(machine)` on a fresh machine at the given thread count.
template <typename Algo>
auto run_at(int sim_threads, Algo&& algo) {
  auto machine = vmpi::Machine::switched(test_cluster(), test_params());
  machine.set_sim_threads(sim_threads);
  return algo(machine);
}

TEST(PartitionedAlgos, GePaperBitIdentical) {
  GeOptions options;
  options.speeds = test_speeds();
  options.n = 48;
  const auto seq = run_at(
      1, [&](vmpi::Machine& m) { return run_parallel_ge(m, options); });
  const auto par = run_at(
      kThreads, [&](vmpi::Machine& m) { return run_parallel_ge(m, options); });
  EXPECT_EQ(seq.run.elapsed, par.run.elapsed);
  EXPECT_EQ(seq.charged_flops, par.charged_flops);
  EXPECT_EQ(seq.solution, par.solution);
  EXPECT_EQ(seq.residual, par.residual);
}

TEST(PartitionedAlgos, GePipelinedBitIdentical) {
  GeOptions options;
  options.speeds = test_speeds();
  options.n = 48;
  options.pipelined = true;
  const auto seq = run_at(
      1, [&](vmpi::Machine& m) { return run_parallel_ge(m, options); });
  const auto par = run_at(
      kThreads, [&](vmpi::Machine& m) { return run_parallel_ge(m, options); });
  EXPECT_EQ(seq.run.elapsed, par.run.elapsed);
  EXPECT_EQ(seq.charged_flops, par.charged_flops);
  EXPECT_EQ(seq.solution, par.solution);
}

TEST(PartitionedAlgos, MmBitIdentical) {
  MmOptions options;
  options.speeds = test_speeds();
  options.n = 40;
  const auto seq = run_at(
      1, [&](vmpi::Machine& m) { return run_parallel_mm(m, options); });
  const auto par = run_at(
      kThreads, [&](vmpi::Machine& m) { return run_parallel_mm(m, options); });
  EXPECT_EQ(seq.run.elapsed, par.run.elapsed);
  EXPECT_EQ(seq.charged_flops, par.charged_flops);
  EXPECT_TRUE(seq.c == par.c);
}

TEST(PartitionedAlgos, JacobiBitIdentical) {
  JacobiOptions options;
  options.speeds = test_speeds();
  options.n = 24;
  options.sweeps = 3;
  const auto seq = run_at(
      1, [&](vmpi::Machine& m) { return run_parallel_jacobi(m, options); });
  const auto par = run_at(
      kThreads, [&](vmpi::Machine& m) { return run_parallel_jacobi(m, options); });
  EXPECT_EQ(seq.run.elapsed, par.run.elapsed);
  EXPECT_EQ(seq.charged_flops, par.charged_flops);
  EXPECT_EQ(seq.grid, par.grid);
}

TEST(PartitionedAlgos, SortBitIdentical) {
  SortOptions options;
  options.speeds = test_speeds();
  options.n = 512;
  const auto seq = run_at(
      1, [&](vmpi::Machine& m) { return run_parallel_sort(m, options); });
  const auto par = run_at(
      kThreads, [&](vmpi::Machine& m) { return run_parallel_sort(m, options); });
  EXPECT_EQ(seq.run.elapsed, par.run.elapsed);
  EXPECT_EQ(seq.charged_flops, par.charged_flops);
  EXPECT_EQ(seq.sorted, par.sorted);
  EXPECT_EQ(seq.bucket_counts, par.bucket_counts);
}

TEST(PartitionedAlgos, SpmvBitIdentical) {
  SpmvOptions options;
  options.speeds = test_speeds();
  options.n = 96;
  options.sweeps = 2;
  const auto seq = run_at(
      1, [&](vmpi::Machine& m) { return run_parallel_spmv(m, options); });
  const auto par = run_at(
      kThreads, [&](vmpi::Machine& m) { return run_parallel_spmv(m, options); });
  EXPECT_EQ(seq.run.elapsed, par.run.elapsed);
  EXPECT_EQ(seq.charged_flops, par.charged_flops);
  EXPECT_EQ(seq.y, par.y);
}

TEST(PartitionedAlgos, SummaBitIdentical) {
  SummaOptions options;
  options.speeds = test_speeds();
  options.n = 32;
  options.tile = 8;
  const auto seq = run_at(
      1, [&](vmpi::Machine& m) { return run_parallel_summa(m, options); });
  const auto par = run_at(
      kThreads, [&](vmpi::Machine& m) { return run_parallel_summa(m, options); });
  EXPECT_EQ(seq.run.elapsed, par.run.elapsed);
  EXPECT_EQ(seq.charged_flops, par.charged_flops);
  EXPECT_TRUE(seq.c == par.c);
}

TEST(PartitionedAlgos, GePivotBitIdentical) {
  GePivotOptions options;
  options.speeds = test_speeds();
  options.n = 40;
  options.panel = 8;
  const auto seq = run_at(
      1, [&](vmpi::Machine& m) { return run_parallel_ge_pivot(m, options); });
  const auto par = run_at(
      kThreads, [&](vmpi::Machine& m) { return run_parallel_ge_pivot(m, options); });
  EXPECT_EQ(seq.run.elapsed, par.run.elapsed);
  EXPECT_EQ(seq.charged_flops, par.charged_flops);
  EXPECT_EQ(seq.row_swaps, par.row_swaps);
  EXPECT_EQ(seq.solution, par.solution);
}

}  // namespace
}  // namespace hetscale::algos
