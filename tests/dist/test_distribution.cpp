#include "hetscale/dist/distribution.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "hetscale/support/error.hpp"

namespace hetscale::dist {
namespace {

std::int64_t sum(const std::vector<std::int64_t>& xs) {
  return std::accumulate(xs.begin(), xs.end(), std::int64_t{0});
}

TEST(HetBlock, CountsSumToN) {
  const std::vector<double> speeds{1.0, 2.0, 3.0};
  for (std::int64_t n : {0, 1, 5, 6, 7, 100, 101}) {
    EXPECT_EQ(sum(het_block_counts(speeds, n)), n) << "n=" << n;
  }
}

TEST(HetBlock, ExactWhenProportionsAreIntegral) {
  const std::vector<double> speeds{1.0, 2.0, 3.0};
  EXPECT_EQ(het_block_counts(speeds, 6),
            (std::vector<std::int64_t>{1, 2, 3}));
  EXPECT_EQ(het_block_counts(speeds, 60),
            (std::vector<std::int64_t>{10, 20, 30}));
}

TEST(HetBlock, WithinOneOfIdealShare) {
  const std::vector<double> speeds{26.0, 26.0, 27.5, 55.0};
  const double total = 134.5;
  for (std::int64_t n : {10, 97, 310, 1000}) {
    const auto counts = het_block_counts(speeds, n);
    for (std::size_t i = 0; i < speeds.size(); ++i) {
      const double ideal = n * speeds[i] / total;
      EXPECT_LT(std::abs(static_cast<double>(counts[i]) - ideal), 1.0);
    }
  }
}

TEST(HetBlock, EqualSpeedsGiveBalancedBlocks) {
  const std::vector<double> speeds{1.0, 1.0, 1.0, 1.0};
  const auto counts = het_block_counts(speeds, 10);
  EXPECT_EQ(sum(counts), 10);
  for (auto c : counts) EXPECT_TRUE(c == 2 || c == 3);
}

TEST(HetBlock, MatchesHomogeneousHelper) {
  EXPECT_EQ(block_counts(4, 10),
            het_block_counts(std::vector<double>{2, 2, 2, 2}, 10));
}

TEST(BlockOffsets, PrefixSums) {
  const std::vector<std::int64_t> counts{3, 0, 2};
  EXPECT_EQ(block_offsets(counts), (std::vector<std::int64_t>{0, 3, 3, 5}));
}

TEST(HetCyclic, EveryPrefixIsNearProportional) {
  const std::vector<double> speeds{1.0, 3.0};
  const auto owners = het_cyclic_owners(speeds, 100);
  std::vector<std::int64_t> assigned(2, 0);
  for (std::size_t j = 0; j < owners.size(); ++j) {
    ++assigned[static_cast<std::size_t>(owners[j])];
    // The GE property: after any prefix, shares stay within one item of
    // proportionality, so remaining work stays balanced at every step.
    const double total = static_cast<double>(j + 1);
    EXPECT_LE(std::abs(assigned[0] - total * 0.25), 1.0 + 1e-9);
    EXPECT_LE(std::abs(assigned[1] - total * 0.75), 1.0 + 1e-9);
  }
}

TEST(HetCyclic, TotalsMatchBlockCounts) {
  const std::vector<double> speeds{26.0, 27.5, 55.0};
  std::vector<std::int64_t> counts(speeds.size(), 0);
  for (int owner : het_cyclic_owners(speeds, 311)) {
    ++counts[static_cast<std::size_t>(owner)];
  }
  const auto block = het_block_counts(speeds, 311);
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]),
                static_cast<double>(block[i]), 1.0);
  }
}

TEST(HetCyclic, EqualSpeedsGiveRoundRobin) {
  const std::vector<double> speeds{1.0, 1.0, 1.0};
  const auto owners = het_cyclic_owners(speeds, 9);
  EXPECT_EQ(owners, (std::vector<int>{0, 1, 2, 0, 1, 2, 0, 1, 2}));
}

TEST(Imbalance, PerfectProportionalIsOne) {
  const std::vector<double> speeds{1.0, 2.0, 3.0};
  const std::vector<std::int64_t> counts{10, 20, 30};
  EXPECT_NEAR(imbalance(speeds, counts), 1.0, 1e-12);
}

TEST(Imbalance, EqualSplitOnHeterogeneousSpeedsIsWorse) {
  const std::vector<double> speeds{1.0, 3.0};
  const std::vector<std::int64_t> equal{30, 30};
  const std::vector<std::int64_t> proportional{15, 45};
  EXPECT_GT(imbalance(speeds, equal), imbalance(speeds, proportional));
  // Equal split: slowest does 30 items at speed 1 while ideal is 15 -> 2x.
  EXPECT_NEAR(imbalance(speeds, equal), 2.0, 1e-12);
}

TEST(Imbalance, EmptyAssignmentIsNeutral) {
  const std::vector<double> speeds{1.0, 2.0};
  const std::vector<std::int64_t> counts{0, 0};
  EXPECT_DOUBLE_EQ(imbalance(speeds, counts), 1.0);
}

TEST(HetBlock, SingleProcessorTakesEverything) {
  const std::vector<double> one{26.0};
  for (std::int64_t n : {0, 1, 97}) {
    EXPECT_EQ(het_block_counts(one, n), (std::vector<std::int64_t>{n}));
    EXPECT_NEAR(imbalance(one, het_block_counts(one, n)), 1.0, 1e-12)
        << "n=" << n;
  }
  EXPECT_TRUE(het_cyclic_owners(one, 5) == (std::vector<int>{0, 0, 0, 0, 0}));
}

TEST(HetBlock, ZeroItemsGiveAllZeroCounts) {
  const std::vector<double> speeds{26.0, 27.5, 55.0};
  EXPECT_EQ(het_block_counts(speeds, 0),
            (std::vector<std::int64_t>{0, 0, 0}));
  EXPECT_TRUE(het_cyclic_owners(speeds, 0).empty());
  EXPECT_EQ(block_offsets(het_block_counts(speeds, 0)),
            (std::vector<std::int64_t>{0, 0, 0, 0}));
}

TEST(HetBlock, ZeroSpeedProcessorRejected) {
  // A zero speed is a modelling error, not "give it no work": the marked
  // suite can never produce one, so it must fail loudly rather than divide.
  const std::vector<double> with_zero{26.0, 0.0, 55.0};
  EXPECT_THROW(het_block_counts(with_zero, 10), PreconditionError);
  EXPECT_THROW(het_cyclic_owners(with_zero, 10), PreconditionError);
  EXPECT_THROW(imbalance(with_zero, std::vector<std::int64_t>{1, 1, 1}),
               PreconditionError);
}

TEST(HetBlock, CountsSumToNAcrossSpeedVectors) {
  // Property sweep: every helper conserves items for awkward speed ratios
  // (irrational-ish shares, near-ties, one dominant rank) and sizes around
  // the rounding boundaries.
  const std::vector<std::vector<double>> vectors{
      {1.0},
      {1.0, 1.0 + 1e-9},
      {0.1, 0.2, 0.7},
      {26.0, 26.0, 27.5, 55.0},
      {3.14159, 2.71828, 1.41421, 1.61803, 0.57721}};
  for (const auto& speeds : vectors) {
    for (std::int64_t n : {0, 1, 2, 3, 7, 31, 32, 33, 1000}) {
      const auto counts = het_block_counts(speeds, n);
      EXPECT_EQ(sum(counts), n) << "p=" << speeds.size() << " n=" << n;
      const auto owners = het_cyclic_owners(speeds, n);
      EXPECT_EQ(static_cast<std::int64_t>(owners.size()), n);
      for (int owner : owners) {
        EXPECT_TRUE(owner >= 0 && owner < static_cast<int>(speeds.size()));
      }
      const auto offsets = block_offsets(counts);
      EXPECT_EQ(offsets.back(), n);
    }
  }
}

TEST(Distribution, InvalidInputsRejected) {
  const std::vector<double> empty;
  EXPECT_THROW(het_block_counts(empty, 10), PreconditionError);
  const std::vector<double> negative{1.0, -1.0};
  EXPECT_THROW(het_block_counts(negative, 10), PreconditionError);
  const std::vector<double> ok{1.0};
  EXPECT_THROW(het_block_counts(ok, -1), PreconditionError);
}

}  // namespace
}  // namespace hetscale::dist
