#include "hetscale/algos/spmv.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/marked/suite.hpp"
#include "hetscale/numeric/matrix.hpp"
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

SpmvResult run_spmv(machine::Cluster cluster, const SpmvOptions& options) {
  auto machine = vmpi::Machine::shared_bus(std::move(cluster), fast_params());
  return run_parallel_spmv(machine, options);
}

machine::Cluster mixed_cluster(int nodes) {
  return machine::sunwulf::mm_ensemble(nodes);
}

/// The sequential reference: the same matrix, the same initial x, the same
/// per-row ascending-column accumulation, sweep by sweep.
std::vector<double> reference_sweeps(const SpmvOptions& options) {
  const auto csr = make_synthetic_csr(options.n, options.seed);
  Rng rng(options.seed);
  std::vector<double> x(static_cast<std::size_t>(options.n));
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  std::vector<double> y(x.size());
  for (std::int64_t s = 0; s < options.sweeps; ++s) {
    spmv_rows(csr, 0, options.n, x, y);
    x = y;
  }
  return x;
}

class SpmvSizes : public ::testing::TestWithParam<std::int64_t> {};
INSTANTIATE_TEST_SUITE_P(Sizes, SpmvSizes,
                         ::testing::Values(1, 2, 3, 5, 16, 40, 97));

TEST_P(SpmvSizes, ResultIsBitIdenticalToSequentialReference) {
  SpmvOptions options;
  options.n = GetParam();
  const auto result = run_spmv(mixed_cluster(4), options);
  EXPECT_EQ(result.y, reference_sweeps(options)) << "n=" << options.n;
}

TEST_P(SpmvSizes, ChargedFlopsEqualWork) {
  SpmvOptions options;
  options.n = GetParam();
  options.with_data = false;
  const auto result = run_spmv(mixed_cluster(4), options);
  EXPECT_DOUBLE_EQ(result.charged_flops, result.work_flops);
  EXPECT_DOUBLE_EQ(result.work_flops,
                   static_cast<double>(options.sweeps) * 2.0 *
                       static_cast<double>(result.nnz));
}

TEST(Spmv, MatchesDenseReference) {
  // One sweep against a dense GEMV of the densified matrix. The dense
  // product sums extra exact zeros, so this is a near (not bitwise) check;
  // the bitwise contract is against the CSR reference above.
  SpmvOptions options;
  options.n = 40;
  options.sweeps = 1;
  const auto csr = make_synthetic_csr(options.n, options.seed);
  numeric::Matrix dense(40, 40);
  for (std::int64_t i = 0; i < 40; ++i) {
    for (auto k = csr.row_ptr[static_cast<std::size_t>(i)];
         k < csr.row_ptr[static_cast<std::size_t>(i) + 1]; ++k) {
      dense(static_cast<std::size_t>(i),
            static_cast<std::size_t>(csr.cols[static_cast<std::size_t>(k)])) =
          csr.vals[static_cast<std::size_t>(k)];
    }
  }
  Rng rng(options.seed);
  std::vector<double> x(40);
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  const auto result = run_spmv(mixed_cluster(4), options);
  ASSERT_EQ(result.y.size(), 40u);
  for (std::size_t i = 0; i < 40; ++i) {
    double want = 0.0;
    for (std::size_t j = 0; j < 40; ++j) want += dense(i, j) * x[j];
    EXPECT_NEAR(result.y[i], want, 1e-12) << "row " << i;
  }
}

TEST(Spmv, HetSplitBeatsHomogeneousOnMixedSpeeds) {
  // The acceptance property: on a heterogeneous ensemble the speed-aware
  // row split is strictly better on both nnz-weighted imbalance and
  // simulated time than equal rows per rank. Enough sweeps amortize the
  // one-time CSR distribution (which favors whichever split keeps more
  // rows at the root).
  SpmvOptions het;
  het.n = 512;
  het.sweeps = 32;
  het.with_data = false;
  SpmvOptions hom = het;
  hom.distribution = SpmvDistribution::kHomogeneousBlock;
  const auto a = run_spmv(mixed_cluster(4), het);
  const auto b = run_spmv(mixed_cluster(4), hom);
  EXPECT_LT(a.work_imbalance, b.work_imbalance);
  EXPECT_LT(a.run.elapsed, b.run.elapsed);
}

TEST(Spmv, RowSplitIsTheOneTheRunUses) {
  const auto cluster = mixed_cluster(4);
  const auto speeds = marked::rank_marked_speeds(cluster);
  const auto csr = make_synthetic_csr(300, SpmvOptions{}.seed);
  for (const auto distribution : {SpmvDistribution::kHeterogeneousBlock,
                                  SpmvDistribution::kHomogeneousBlock}) {
    const auto split = spmv_row_split(csr, speeds, distribution);
    std::int64_t rows = 0;
    std::int64_t nnz = 0;
    for (std::size_t i = 0; i < split.counts.size(); ++i) {
      EXPECT_EQ(split.offsets[i], rows);
      rows += split.counts[i];
      nnz += split.nnz_counts[i];
    }
    EXPECT_EQ(rows, csr.n);
    EXPECT_EQ(nnz, csr.nnz());
    SpmvOptions options;
    options.n = csr.n;
    options.with_data = false;
    options.distribution = distribution;
    EXPECT_EQ(run_spmv(cluster, options).work_imbalance,
              split.work_imbalance);
  }
}

TEST(Spmv, TimingInvariantUnderWithData) {
  SpmvOptions with;
  with.n = 64;
  with.with_data = true;
  SpmvOptions without = with;
  without.with_data = false;
  const auto a = run_spmv(mixed_cluster(4), with);
  const auto b = run_spmv(mixed_cluster(4), without);
  EXPECT_EQ(a.run.elapsed, b.run.elapsed);
}

TEST(Spmv, SingleRankHasNoTraffic) {
  machine::Cluster cluster;
  cluster.add_node("solo", machine::sunwulf::sunblade_spec());
  auto machine = vmpi::Machine::shared_bus(std::move(cluster), fast_params());
  SpmvOptions options;
  options.n = 32;
  const auto result = run_parallel_spmv(machine, options);
  EXPECT_EQ(result.run.network.messages, 0u);
  EXPECT_EQ(result.y, reference_sweeps(options));
}

TEST(Spmv, MoreRanksThanRowsStillBitIdentical) {
  SpmvOptions options;
  options.n = 3;  // 4 ranks, at least one empty block
  const auto result = run_spmv(mixed_cluster(4), options);
  EXPECT_EQ(result.y, reference_sweeps(options));
}

TEST(Spmv, InvalidOptionsRejected) {
  SpmvOptions bad_n;
  bad_n.n = 0;
  EXPECT_THROW(run_spmv(mixed_cluster(2), bad_n), PreconditionError);
  SpmvOptions bad_sweeps;
  bad_sweeps.n = 8;
  bad_sweeps.sweeps = 0;
  EXPECT_THROW(run_spmv(mixed_cluster(2), bad_sweeps), PreconditionError);
}

TEST(SyntheticCsr, StructureIsWellFormedAndDeterministic) {
  const auto m = make_synthetic_csr(200, 45);
  ASSERT_EQ(m.row_ptr.size(), 201u);
  EXPECT_EQ(m.row_ptr.front(), 0);
  EXPECT_EQ(m.row_ptr.back(), m.nnz());
  for (std::int64_t i = 0; i < 200; ++i) {
    const auto k0 = static_cast<std::size_t>(
        m.row_ptr[static_cast<std::size_t>(i)]);
    const auto k1 = static_cast<std::size_t>(
        m.row_ptr[static_cast<std::size_t>(i) + 1]);
    const auto width = static_cast<std::int64_t>(k1 - k0);
    EXPECT_GE(width, 4) << "row " << i;
    EXPECT_LE(width, 16) << "row " << i;
    bool has_diagonal = false;
    for (std::size_t k = k0; k < k1; ++k) {
      if (k > k0) {
        EXPECT_LT(m.cols[k - 1], m.cols[k]) << "row " << i;
      }
      EXPECT_GE(m.cols[k], 0);
      EXPECT_LT(m.cols[k], 200);
      if (m.cols[k] == i) has_diagonal = true;
    }
    EXPECT_TRUE(has_diagonal) << "row " << i;
  }
  // Rows have *varying* nonzero counts — the imbalance the workload exists
  // to exercise — and the generator is a pure function of (n, seed).
  std::int64_t min_width = 17, max_width = 0;
  for (std::int64_t i = 0; i < 200; ++i) {
    const auto width = m.row_ptr[static_cast<std::size_t>(i) + 1] -
                       m.row_ptr[static_cast<std::size_t>(i)];
    min_width = std::min(min_width, width);
    max_width = std::max(max_width, width);
  }
  EXPECT_LT(min_width, max_width);
  const auto again = make_synthetic_csr(200, 45);
  EXPECT_EQ(m.cols, again.cols);
  EXPECT_EQ(m.vals, again.vals);
  EXPECT_NE(make_synthetic_csr(200, 46).cols, m.cols);
}

}  // namespace
}  // namespace hetscale::algos
