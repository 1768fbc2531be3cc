// The pipelined (lookahead-1) GE variant: identical numerics, overlapped
// pivot distribution.
#include <gtest/gtest.h>

#include <string>

#include "hetscale/algos/ge.hpp"
#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/numeric/linsolve.hpp"
#include "hetscale/numeric/matrix.hpp"

namespace hetscale::algos {
namespace {

machine::Cluster hetero_cluster(int blades) {
  machine::Cluster cluster;
  cluster.add_node("server", machine::sunwulf::server_spec(), 2);
  for (int i = 0; i < blades; ++i) {
    cluster.add_node("hpc-" + std::to_string(i),
                     machine::sunwulf::sunblade_spec());
  }
  return cluster;
}

GeResult run_ge(machine::Cluster cluster, const GeOptions& options) {
  auto machine = vmpi::Machine::switched(std::move(cluster));
  return run_parallel_ge(machine, options);
}

// The paper variant applies its pivots in blocks of eight steps; the
// pipelined one applies each pivot at its own step. Sizes from 17 on cross
// several blocks and end on a partial block and partial four-row tiles, so
// the solution comparison is the end-to-end differential test of the
// blocked elimination.
class PipelinedSizes : public ::testing::TestWithParam<std::int64_t> {};
INSTANTIATE_TEST_SUITE_P(Sizes, PipelinedSizes,
                         ::testing::Values(1, 2, 3, 9, 40, 70, 17, 64, 129,
                                           257));

TEST_P(PipelinedSizes, SolutionBitIdenticalToPaperVariant) {
  GeOptions paper;
  paper.n = GetParam();
  paper.pipelined = false;
  GeOptions pipelined = paper;
  pipelined.pipelined = true;
  const auto a = run_ge(hetero_cluster(3), paper);
  const auto b = run_ge(hetero_cluster(3), pipelined);
  EXPECT_EQ(a.solution, b.solution);  // same arithmetic, different schedule
  EXPECT_LT(b.residual, 1e-8);
}

TEST_P(PipelinedSizes, ChargesExactlyTheWorkload) {
  GeOptions options;
  options.n = GetParam();
  options.pipelined = true;
  options.with_data = false;
  const auto result = run_ge(hetero_cluster(3), options);
  EXPECT_DOUBLE_EQ(result.charged_flops, result.work_flops);
}

TEST(GePipelined, FasterThanPaperVariant) {
  GeOptions paper;
  paper.n = 300;
  paper.with_data = false;
  GeOptions pipelined = paper;
  pipelined.pipelined = true;
  const auto t_paper = run_ge(hetero_cluster(5), paper).run.elapsed;
  const auto t_pipe = run_ge(hetero_cluster(5), pipelined).run.elapsed;
  EXPECT_LT(t_pipe, t_paper);
  // The win is substantial, not epsilon: no barrier + overlapped pivots.
  EXPECT_LT(t_pipe, 0.8 * t_paper);
}

TEST(GePipelined, TimingInvariantUnderWithData) {
  GeOptions with;
  with.n = 40;
  with.pipelined = true;
  GeOptions without = with;
  without.with_data = false;
  EXPECT_EQ(run_ge(hetero_cluster(3), with).run.elapsed,
            run_ge(hetero_cluster(3), without).run.elapsed);
}

TEST(GePipelined, SingleRankStillWorks) {
  machine::Cluster solo;
  solo.add_node("solo", machine::sunwulf::sunblade_spec());
  auto machine = vmpi::Machine::switched(std::move(solo));
  GeOptions options;
  options.n = 25;
  options.pipelined = true;
  const auto result = run_parallel_ge(machine, options);
  EXPECT_LT(result.residual, 1e-9);
  EXPECT_DOUBLE_EQ(result.charged_flops, result.work_flops);
}

}  // namespace
}  // namespace hetscale::algos
