// Property tests for the kernel dispatch layer: every ISA path must be
// bit-for-bit identical to the scalar reference. These sweeps cover sizes
// 0..129 (every vector-width tail shape), unaligned base offsets, and
// alias-free operands — the exact envelope the bit-identity contract in
// dispatch.hpp promises.
#include "hetscale/kernels/dispatch.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <vector>

#include "hetscale/kernels/blas1.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::kernels {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Deterministic values with awkward cases salted in: exact zeros of both
/// signs, denormals, and large magnitudes that make rounding differences
/// visible if a path reassociates or contracts.
std::vector<double> test_values(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 11) {
      case 3:
        out[i] = 0.0;
        break;
      case 5:
        out[i] = -0.0;
        break;
      case 7:
        out[i] = 4.9e-324;  // smallest denormal
        break;
      case 9:
        out[i] = dist(gen) * 1e300;
        break;
      default:
        out[i] = dist(gen);
    }
  }
  return out;
}

class DispatchBitIdentity : public ::testing::Test {
 protected:
  void SetUp() override {
    avx2_ = avx2_ops();
    if (avx2_ == nullptr) {
      GTEST_SKIP() << "no AVX2 on this CPU/build; nothing to compare";
    }
  }
  const KernelOps* avx2_ = nullptr;
};

TEST_F(DispatchBitIdentity, AxpyMatchesScalarForAllTailsAndOffsets) {
  for (std::size_t n = 0; n <= 129; ++n) {
    for (std::size_t offset : {std::size_t{0}, std::size_t{1},
                               std::size_t{3}}) {
      const auto x = test_values(n + offset, 17 * n + offset);
      const auto y0 = test_values(n + offset, 31 * n + offset + 1);
      const double a = -0.7368421052631579;
      auto ys = y0;
      auto yv = y0;
      scalar_ops().axpy(a, x.data() + offset, ys.data() + offset, n);
      avx2_->axpy(a, x.data() + offset, yv.data() + offset, n);
      for (std::size_t i = 0; i < n + offset; ++i) {
        ASSERT_EQ(bits(ys[i]), bits(yv[i]))
            << "n=" << n << " offset=" << offset << " i=" << i;
      }
    }
  }
}

TEST_F(DispatchBitIdentity, Rank1Update4MatchesScalarForAllTails) {
  for (std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{8}}) {
    for (std::size_t n = 0; n <= 129; ++n) {
      for (std::size_t offset : {std::size_t{0}, std::size_t{1},
                                 std::size_t{3}}) {
        // m pivots, four rows of m factors each (zeros included: the raw
        // kernel applies every factor).
        std::vector<std::vector<double>> x;
        std::vector<std::vector<double>> f;
        std::vector<const double*> xs;
        std::vector<const double*> fs;
        for (std::size_t j = 0; j < m; ++j) {
          x.push_back(test_values(n + offset, 131 * n + offset + 1000 * j));
        }
        for (std::size_t r = 0; r < 4; ++r) {
          f.push_back(test_values(m, n + 2 + 10 * r));
        }
        for (const auto& v : x) xs.push_back(v.data() + offset);
        for (const auto& v : f) fs.push_back(v.data());
        std::vector<std::vector<double>> rs;
        std::vector<std::vector<double>> rv;
        for (std::size_t r = 0; r < 4; ++r) {
          rs.push_back(test_values(n + offset, 7 * n + r));
          rv.push_back(rs.back());
        }
        double* ps[4] = {rs[0].data() + offset, rs[1].data() + offset,
                         rs[2].data() + offset, rs[3].data() + offset};
        double* pv[4] = {rv[0].data() + offset, rv[1].data() + offset,
                         rv[2].data() + offset, rv[3].data() + offset};
        scalar_ops().rank1_update4(xs.data(), m, ps, fs.data(), n);
        avx2_->rank1_update4(xs.data(), m, pv, fs.data(), n);
        for (std::size_t r = 0; r < 4; ++r) {
          for (std::size_t i = 0; i < n + offset; ++i) {
            ASSERT_EQ(bits(rs[r][i]), bits(rv[r][i]))
                << "m=" << m << " n=" << n << " offset=" << offset
                << " row=" << r << " i=" << i;
          }
        }
      }
    }
  }
}

TEST_F(DispatchBitIdentity, MmTile4MatchesScalarForAllPanelWidths) {
  for (std::size_t nc = 0; nc <= 129; ++nc) {
    for (std::size_t kc : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
      const auto panel = test_values(kc * nc, 41 * nc + kc);
      std::vector<std::vector<double>> a;
      std::vector<std::vector<double>> cs;
      std::vector<std::vector<double>> cv;
      for (std::size_t r = 0; r < 4; ++r) {
        a.push_back(test_values(kc, 13 * nc + r));
        cs.push_back(test_values(nc, 19 * nc + r));
        cv.push_back(cs.back());
      }
      const double* ap[4] = {a[0].data(), a[1].data(), a[2].data(),
                             a[3].data()};
      double* ps[4] = {cs[0].data(), cs[1].data(), cs[2].data(),
                       cs[3].data()};
      double* pv[4] = {cv[0].data(), cv[1].data(), cv[2].data(),
                       cv[3].data()};
      scalar_ops().mm_tile4(ap, panel.data(), kc, nc, ps);
      avx2_->mm_tile4(ap, panel.data(), kc, nc, pv);
      for (std::size_t r = 0; r < 4; ++r) {
        for (std::size_t j = 0; j < nc; ++j) {
          ASSERT_EQ(bits(cs[r][j]), bits(cv[r][j]))
              << "nc=" << nc << " kc=" << kc << " row=" << r << " j=" << j;
        }
      }
    }
  }
}

// The public blas1 entry points go through the process-wide table; whatever
// it selected must be one of the two known tables and must agree with the
// reported ISA.
TEST(Dispatch, ActiveTableIsConsistent) {
  const KernelOps& active = ops();
  EXPECT_TRUE(active.isa == Isa::kScalar || active.isa == Isa::kAvx2);
  EXPECT_EQ(active.isa, active_isa());
  if (active.isa == Isa::kAvx2) {
    EXPECT_TRUE(cpu_supports_avx2());
  }
  EXPECT_EQ(scalar_ops().isa, Isa::kScalar);
  EXPECT_STREQ(isa_name(Isa::kScalar), "scalar");
  EXPECT_STREQ(isa_name(Isa::kAvx2), "avx2");
}

TEST(Dispatch, Avx2TableImpliesHardwareSupport) {
  // avx2_ops() must never hand out a table the running CPU cannot execute.
  if (avx2_ops() != nullptr) {
    EXPECT_TRUE(cpu_supports_avx2());
  } else {
    EXPECT_FALSE(cpu_supports_avx2());
  }
}

// The span-level public API must hit the dispatched path end to end. Seven
// rows cover a four-row tile and a leftover row whose factors are all
// non-zero (rows 0 and 2-5), and two rows with a zero factor (1 and 6),
// which must skip exactly their zero (row, pivot) pairs. Row 1 would sit in
// the first tile if it were not skipped, and applying its +0.0 factor there
// would turn the row's -0.0 entries into +0.0 where x holds -0.0.
TEST(Dispatch, PublicRank1UpdateMatchesPerRowAxpy) {
  const std::size_t n = 37;
  constexpr std::size_t kRows = 7;
  for (std::size_t m : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                        std::size_t{8}}) {
    std::vector<std::vector<double>> x;
    std::vector<const double*> xs;
    for (std::size_t j = 0; j < m; ++j) {
      x.push_back(test_values(n, 1 + j));
      xs.push_back(x.back().data());
    }
    std::mt19937_64 gen(2 + m);
    std::uniform_real_distribution<double> dist(0.5, 1.5);
    std::vector<std::vector<double>> factors(kRows, std::vector<double>(m));
    for (auto& row : factors) {
      for (double& v : row) v = dist(gen);
    }
    factors[1][0] = 0.0;
    factors[6][m - 1] = -0.0;
    std::vector<const double*> fs;
    for (const auto& row : factors) fs.push_back(row.data());
    std::vector<std::vector<double>> got;
    std::vector<std::vector<double>> want;
    for (std::size_t r = 0; r < kRows; ++r) {
      got.push_back(test_values(n, 100 + r));
      want.push_back(got.back());
    }
    std::vector<double*> ptrs;
    for (auto& row : got) ptrs.push_back(row.data());
    rank1_update(xs, n, ptrs, fs);
    for (std::size_t r = 0; r < kRows; ++r) {
      for (std::size_t j = 0; j < m; ++j) {
        if (factors[r][j] != 0.0) axpy(-factors[r][j], x[j], want[r]);
      }
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(bits(want[r][i]), bits(got[r][i]))
            << "m=" << m << " row=" << r << " i=" << i;
      }
    }
  }
}

/// Bitwise equality, except that any NaN matches any NaN: IEEE 754 leaves
/// the payload and sign of an arithmetic NaN unspecified.
bool same_value(double a, double b) {
  return bits(a) == bits(b) || (std::isnan(a) && std::isnan(b));
}

/// Values for the block-elimination sweep: mostly ordinary, with -0.0, inf
/// and NaN salted in at a low rate so most rows stay finite.
std::vector<double> block_values(std::size_t n, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t pick = gen() % 64;
    if (pick == 0) {
      out[i] = -0.0;
    } else if (pick == 1) {
      out[i] = std::numeric_limits<double>::infinity();
    } else if (pick == 2) {
      out[i] = std::numeric_limits<double>::quiet_NaN();
    } else {
      out[i] = dist(gen);
    }
  }
  return out;
}

// eliminate_block must equal m successive eliminate_row steps (leads 0..m-1,
// the last column playing the rhs) for every row count around the four-row
// tile, every block size up to 9 and widths with every tail shape. Row 3
// starts with a zero (+0.0 for even m, -0.0 for odd) in column m / 2, where
// every earlier pivot holds a zero too, so its factor for pivot m / 2 is an
// exact zero and that (row, pivot) pair must be skipped; the other rows
// take the four-row tile (from five rows on) or the leftover path.
TEST(Dispatch, EliminateBlockMatchesStepwiseEliminateRow) {
  for (std::size_t rows = 1; rows <= 7; ++rows) {
    for (std::size_t m = 1; m <= 9; ++m) {
      for (std::size_t extra : {1, 2, 3, 4, 5, 8, 13, 29}) {
        const std::size_t width = m + extra;
        const std::uint64_t seed = 1000 * rows + 50 * m + extra;
        std::vector<std::vector<double>> pivots;
        for (std::size_t j = 0; j < m; ++j) {
          pivots.push_back(block_values(width - j, seed + 7 * j));
        }
        const std::size_t zero_col = m / 2;
        for (std::size_t j = 0; j < zero_col; ++j) {
          pivots[j][zero_col - j] = 0.0;
        }
        std::vector<std::vector<double>> got;
        for (std::size_t r = 0; r < rows; ++r) {
          got.push_back(block_values(width, seed + 500 + r));
          if (r == 3) got.back()[zero_col] = m % 2 == 0 ? 0.0 : -0.0;
        }
        auto want = got;

        std::vector<const double*> heads;
        for (const auto& pivot : pivots) heads.push_back(pivot.data());
        std::vector<double*> ptrs;
        for (auto& row : got) ptrs.push_back(row.data());
        eliminate_block(heads, ptrs, width);

        for (std::size_t j = 0; j < m; ++j) {
          // The pivot at full width; columns left of its lead are unused.
          std::vector<double> full(width, 0.0);
          std::copy(pivots[j].begin(), pivots[j].end(), full.begin() + j);
          for (auto& row : want) {
            eliminate_row(std::span(full).first(width - 1), full.back(),
                          std::span(row).first(width - 1), row.back(), j);
          }
        }
        for (std::size_t r = 0; r < rows; ++r) {
          for (std::size_t c = 0; c < width; ++c) {
            ASSERT_TRUE(same_value(want[r][c], got[r][c]))
                << "rows=" << rows << " m=" << m << " width=" << width
                << " row=" << r << " col=" << c << " want=" << want[r][c]
                << " got=" << got[r][c];
          }
        }
      }
    }
  }
}

TEST(Dispatch, EliminateBlockRejectsMorePivotsThanColumns) {
  std::vector<double> pivot(2, 1.0);
  std::vector<double> row(2, 1.0);
  const double* heads[3] = {pivot.data(), pivot.data(), pivot.data()};
  double* rows[1] = {row.data()};
  EXPECT_THROW(eliminate_block(heads, rows, 2), PreconditionError);
}

}  // namespace
}  // namespace hetscale::kernels
