#include "hetscale/algos/ge_pivot.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/numeric/linsolve.hpp"
#include "hetscale/support/error.hpp"
#include "hetscale/support/rng.hpp"

namespace hetscale::algos {
namespace {

net::NetworkParams fast_params() {
  net::NetworkParams p;
  p.remote = {1e-4, 12.5e6};
  p.per_message_overhead_s = 2e-5;
  return p;
}

GePivotResult run_pivot(machine::Cluster cluster,
                        const GePivotOptions& options) {
  auto machine = vmpi::Machine::shared_bus(std::move(cluster), fast_params());
  return run_parallel_ge_pivot(machine, options);
}

machine::Cluster mixed_cluster(int nodes) {
  return machine::sunwulf::ge_ensemble(nodes);
}

/// The sequential pivoted reference on the same system ge_pivot generates.
std::vector<double> reference_solution(std::uint64_t seed, std::int64_t n) {
  Rng rng(seed);
  auto a = numeric::Matrix::random_diagonally_dominant(
      static_cast<std::size_t>(n), rng);
  std::vector<double> b(static_cast<std::size_t>(n));
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);
  return numeric::solve_dense(a, b, numeric::Pivoting::kPartial);
}

class GePivotSizes : public ::testing::TestWithParam<std::int64_t> {};
INSTANTIATE_TEST_SUITE_P(Sizes, GePivotSizes,
                         ::testing::Values(1, 2, 3, 5, 16, 40, 97));

TEST_P(GePivotSizes, SolutionIsBitIdenticalToPivotedReference) {
  GePivotOptions options;
  options.n = GetParam();
  options.panel = 8;
  const auto result = run_pivot(mixed_cluster(4), options);
  EXPECT_EQ(result.solution, reference_solution(options.seed, options.n))
      << "n=" << options.n;
  EXPECT_LT(result.residual, 1e-9);
}

TEST(GePivot, PanelWidthDoesNotChangeTheSolution) {
  // The deferred trailing updates replay the unblocked per-element order, so
  // any panel width gives the same doubles.
  GePivotOptions narrow;
  narrow.n = 48;
  narrow.panel = 1;
  GePivotOptions wide = narrow;
  wide.panel = 32;
  const auto a = run_pivot(mixed_cluster(4), narrow);
  const auto b = run_pivot(mixed_cluster(4), wide);
  EXPECT_EQ(a.solution, b.solution);
}

TEST(GePivot, SolvesSystemsThatDefeatPivotFreeGe) {
  // a(0,0) == 0: pivot-free GE dies at step 0; the pivot search swaps row 1
  // up and solves it. x = (3, 2) for [[0,1],[1,0]] x = (2, 3).
  GePivotOptions options;
  options.n = 2;
  options.system_a = numeric::Matrix(2, 2);
  options.system_a(0, 1) = 1.0;
  options.system_a(1, 0) = 1.0;
  options.system_b = {2.0, 3.0};
  const auto result = run_pivot(mixed_cluster(2), options);
  ASSERT_EQ(result.solution.size(), 2u);
  EXPECT_DOUBLE_EQ(result.solution[0], 3.0);
  EXPECT_DOUBLE_EQ(result.solution[1], 2.0);
  EXPECT_GE(result.row_swaps, 1);
}

TEST(GePivot, SwapsMatchTheReferencePermutation) {
  // On a general (not diagonally dominant) random system some pivots must
  // move; the parallel run still matches the sequential reference bitwise.
  GePivotOptions options;
  options.n = 24;
  options.panel = 8;
  Rng rng(7);
  options.system_a = numeric::Matrix::random(24, 24, rng);
  options.system_b.resize(24);
  for (auto& v : options.system_b) v = rng.uniform(-1.0, 1.0);
  const auto result = run_pivot(mixed_cluster(4), options);
  EXPECT_GT(result.row_swaps, 0);
  EXPECT_EQ(result.solution,
            numeric::solve_dense(options.system_a, options.system_b,
                                 numeric::Pivoting::kPartial));
}

TEST(GePivot, SingularSystemRejected) {
  GePivotOptions options;
  options.n = 3;
  options.system_a = numeric::Matrix(3, 3);  // all zeros
  options.system_b = {1.0, 1.0, 1.0};
  EXPECT_THROW(run_pivot(mixed_cluster(2), options), ModelError);
}

TEST(GePivot, TimingOnlyRunsAreDeterministic) {
  GePivotOptions options;
  options.n = 64;
  options.panel = 16;
  options.with_data = false;
  const auto a = run_pivot(mixed_cluster(4), options);
  const auto b = run_pivot(mixed_cluster(4), options);
  EXPECT_EQ(a.run.elapsed, b.run.elapsed);
  EXPECT_EQ(a.charged_flops, b.charged_flops);
  EXPECT_GT(a.charged_flops, a.work_flops);  // pivoting overhead is charged
}

TEST(GePivot, InvalidOptionsRejected) {
  GePivotOptions bad_n;
  bad_n.n = 0;
  EXPECT_THROW(run_pivot(mixed_cluster(2), bad_n), PreconditionError);
  GePivotOptions bad_panel;
  bad_panel.n = 8;
  bad_panel.panel = 0;
  EXPECT_THROW(run_pivot(mixed_cluster(2), bad_panel), PreconditionError);
}

}  // namespace
}  // namespace hetscale::algos
