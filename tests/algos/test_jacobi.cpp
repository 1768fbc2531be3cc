#include "hetscale/algos/jacobi.hpp"

#include <gtest/gtest.h>

#include <type_traits>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/numeric/matrix.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::algos {
namespace {

net::NetworkParams fast_params() {
  net::NetworkParams p;
  p.remote = {1e-4, 12.5e6};
  p.per_message_overhead_s = 2e-5;
  return p;
}

JacobiResult run_jacobi(machine::Cluster cluster,
                        const JacobiOptions& options) {
  auto machine = vmpi::Machine::shared_bus(std::move(cluster), fast_params());
  return run_parallel_jacobi(machine, options);
}

// gtest prints a Case as its raw bytes, and ctest copies that text into the
// test names. Padding bytes are uninitialized, so a padded Case would give
// the tests different names in every build; three 8-byte fields leave none.
struct Case {
  std::int64_t n;
  std::int64_t sweeps;
  std::int64_t nodes;
};
static_assert(std::has_unique_object_representations_v<Case>,
              "Case must have no padding bytes");

class JacobiCases : public ::testing::TestWithParam<Case> {};
INSTANTIATE_TEST_SUITE_P(Grid, JacobiCases,
                         ::testing::Values(Case{5, 1, 2}, Case{8, 3, 2},
                                           Case{16, 5, 4}, Case{24, 2, 8},
                                           Case{33, 4, 4}));

TEST_P(JacobiCases, MatchesSequentialReference) {
  const auto param = GetParam();
  JacobiOptions options;
  options.n = param.n;
  options.sweeps = param.sweeps;
  const auto result =
      run_jacobi(machine::sunwulf::mm_ensemble(static_cast<int>(param.nodes)),
                 options);
  const auto reference =
      jacobi_reference(param.n, param.sweeps, options.seed);
  ASSERT_EQ(result.grid.size(), reference.size());
  EXPECT_LT(numeric::max_abs_diff(result.grid, reference), 1e-12);
}

TEST_P(JacobiCases, ChargedFlopsEqualWorkload) {
  const auto param = GetParam();
  JacobiOptions options;
  options.n = param.n;
  options.sweeps = param.sweeps;
  options.with_data = false;
  const auto result =
      run_jacobi(machine::sunwulf::mm_ensemble(static_cast<int>(param.nodes)),
                 options);
  EXPECT_DOUBLE_EQ(result.charged_flops, result.work_flops);
}

TEST(Jacobi, TimingInvariantUnderWithData) {
  JacobiOptions with;
  with.n = 20;
  with.sweeps = 4;
  with.with_data = true;
  JacobiOptions without = with;
  without.with_data = false;
  const auto a = run_jacobi(machine::sunwulf::mm_ensemble(4), with);
  const auto b = run_jacobi(machine::sunwulf::mm_ensemble(4), without);
  EXPECT_EQ(a.run.elapsed, b.run.elapsed);
}

TEST(Jacobi, SweepsScaleWorkLinearly) {
  EXPECT_DOUBLE_EQ(jacobi_workload(50, 10), 10.0 * jacobi_workload(50, 1));
}

TEST(Jacobi, TooManyRanksRejected) {
  JacobiOptions options;
  options.n = 4;  // 2 interior rows, but mm_ensemble(4) has 4 ranks
  EXPECT_THROW(run_jacobi(machine::sunwulf::mm_ensemble(4), options),
               PreconditionError);
  // jacobi_min_n is the boundary: one interior row per rank runs.
  options.n = jacobi_min_n(4);
  EXPECT_EQ(options.n, 6);
  EXPECT_NO_THROW(run_jacobi(machine::sunwulf::mm_ensemble(4), options));
}

TEST(Jacobi, InvalidParamsRejected) {
  JacobiOptions options;
  options.n = 2;
  EXPECT_THROW(run_jacobi(machine::sunwulf::mm_ensemble(2), options),
               PreconditionError);
  options.n = 10;
  options.sweeps = 0;
  EXPECT_THROW(run_jacobi(machine::sunwulf::mm_ensemble(2), options),
               PreconditionError);
}

TEST(Jacobi, BoundaryStaysFixed) {
  JacobiOptions options;
  options.n = 10;
  options.sweeps = 3;
  const auto result = run_jacobi(machine::sunwulf::mm_ensemble(2), options);
  const auto initial = jacobi_reference(10, 1, options.seed);  // any sweep
  // Compare boundaries against a fresh initial grid (same seed): row 0,
  // row n-1, and the first/last column never change.
  const auto w = static_cast<std::size_t>(10);
  JacobiOptions probe = options;
  probe.sweeps = 1;
  const auto one = run_jacobi(machine::sunwulf::mm_ensemble(2), probe);
  for (std::size_t c = 0; c < w; ++c) {
    EXPECT_EQ(result.grid[c], one.grid[c]);
    EXPECT_EQ(result.grid[(w - 1) * w + c], one.grid[(w - 1) * w + c]);
  }
  for (std::size_t r = 0; r < w; ++r) {
    EXPECT_EQ(result.grid[r * w], one.grid[r * w]);
    EXPECT_EQ(result.grid[r * w + w - 1], one.grid[r * w + w - 1]);
  }
  (void)initial;
}

}  // namespace
}  // namespace hetscale::algos
