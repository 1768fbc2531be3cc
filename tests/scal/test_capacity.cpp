#include "hetscale/scal/capacity.hpp"

#include <gtest/gtest.h>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::scal {
namespace {

TEST(Capacity, FootprintsGrowQuadratically) {
  for (const auto& footprint :
       {ge_footprint(), mm_footprint(), jacobi_footprint()}) {
    const double small = footprint(100, 0, 4);
    const double big = footprint(200, 0, 4);
    EXPECT_GT(big, 3.0 * small);  // ~4x for dense-matrix-dominated roots
    EXPECT_LT(big, 5.0 * small);
  }
}

TEST(Capacity, RootHoldsMoreThanWorkersForGe) {
  const auto footprint = ge_footprint();
  EXPECT_GT(footprint(500, 0, 8), footprint(500, 3, 8));
}

TEST(Capacity, MmWorkersStillHoldFullB) {
  const auto footprint = mm_footprint();
  // Worker footprint is dominated by the replicated B: more than 8N².
  EXPECT_GT(footprint(500, 3, 8), 8.0 * 500.0 * 500.0);
}

TEST(Capacity, MaxFeasibleSizeRespectsSmallestNode) {
  // All-SunBlade (128 MB) vs all-V210 (2 GB): same footprint, very
  // different ceilings.
  const auto blades = machine::sunwulf::homogeneous_ensemble(4);
  machine::Cluster v210s;
  for (int i = 0; i < 4; ++i) {
    v210s.add_node("v" + std::to_string(i), machine::sunwulf::v210_spec(),
                   1);
  }
  const auto footprint = ge_footprint();
  const auto blade_max = max_feasible_size(blades, footprint);
  const auto v210_max = max_feasible_size(v210s, footprint);
  EXPECT_GT(blade_max, 0);
  EXPECT_GT(v210_max, 3 * blade_max);
}

TEST(Capacity, MaxFeasibleSizeIsExactBoundary) {
  const auto cluster = machine::sunwulf::homogeneous_ensemble(4);
  const auto footprint = ge_footprint();
  const auto n_max = max_feasible_size(cluster, footprint);
  const double budget =
      0.8 * machine::sunwulf::sunblade_spec().memory_bytes;
  EXPECT_LE(footprint(n_max, 0, 4), budget);
  EXPECT_GT(footprint(n_max + 1, 0, 4), budget);
}

TEST(Capacity, HonoursCeiling) {
  const auto cluster = machine::sunwulf::ge_ensemble(2);
  EXPECT_EQ(max_feasible_size(cluster, ge_footprint(), 0.8, 100), 100);
}

TEST(Capacity, ZeroWhenNothingFits) {
  machine::Cluster tiny;
  auto spec = machine::sunwulf::sunblade_spec();
  spec.memory_bytes = 16.0;  // 16 bytes of RAM
  tiny.add_node("t", spec);
  EXPECT_EQ(max_feasible_size(tiny, ge_footprint()), 0);
}

TEST(Capacity, MemoryBoundedSolveFindsFeasibleTarget) {
  ClusterCombination::Config config;
  config.cluster = machine::sunwulf::ge_ensemble(2);
  config.with_data = false;
  ClusterCombination combo("GE-2", std::move(config), ge_algo());
  // Root is the 4 GB server: plenty of room for the E_s = 0.3 point.
  const auto result =
      memory_bounded_required_size(combo, 0.3, ge_footprint());
  EXPECT_FALSE(result.memory_bound);
  ASSERT_TRUE(result.solve.found);
  EXPECT_LE(result.solve.n, result.n_limit);
}

TEST(Capacity, AllBladeSystemBecomesMemoryBound) {
  // Sun & Ni's memory-bounded regime: on all-SunBlade systems the root
  // must hold the full matrix in 128 MB, and past some ensemble size the
  // required problem for E_s = 0.3 no longer fits.
  ClusterCombination::Config config;
  config.cluster = machine::sunwulf::homogeneous_ensemble(32);
  config.with_data = false;
  ClusterCombination combo("hom-32", std::move(config), ge_algo());
  const auto result =
      memory_bounded_required_size(combo, 0.3, ge_footprint());
  EXPECT_TRUE(result.memory_bound);
  EXPECT_GT(result.n_limit, 0);
}

TEST(Capacity, InvalidInputsRejected) {
  const auto cluster = machine::sunwulf::ge_ensemble(2);
  EXPECT_THROW(max_feasible_size(cluster, ge_footprint(), 0.0),
               PreconditionError);
  EXPECT_THROW(max_feasible_size(cluster, ge_footprint(), 1.5),
               PreconditionError);
  EXPECT_THROW(max_feasible_size(cluster, nullptr), PreconditionError);
}

}  // namespace
}  // namespace hetscale::scal
