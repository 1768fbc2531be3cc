// Differential tests: obs::CommMatrix's flat cell table against the
// reference std::map matrix (reference_comm_matrix.hpp) on seeded record
// sequences — repeated and fresh cells, sends and waits with non-dyadic
// values (so every float sum depends on its order), several lanes folded
// with +=. cells() and every total must be bitwise equal, per lane and
// folded.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "hetscale/obs/comm_matrix.hpp"
#include "reference_comm_matrix.hpp"

namespace hetscale::obs {
namespace {

constexpr std::uint64_t kSeeds = 200;
constexpr int kPhases = 14;

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

template <class Matrix>
void expect_same(const CommMatrix& got, const Matrix& want) {
  EXPECT_EQ(got.empty(), want.empty());
  EXPECT_EQ(got.cell_count(), want.cell_count());
  EXPECT_EQ(got.total_messages(), want.total_messages());
  EXPECT_EQ(bits(got.total_bytes()), bits(want.total_bytes()));
  EXPECT_EQ(bits(got.total_wait_s()), bits(want.total_wait_s()));
  const std::vector<CommCell> g = got.cells();
  const std::vector<CommCell> w = want.cells();
  ASSERT_EQ(g.size(), w.size());
  for (std::size_t i = 0; i < g.size(); ++i) {
    EXPECT_EQ(g[i].src, w[i].src) << "cell " << i;
    EXPECT_EQ(g[i].dst, w[i].dst) << "cell " << i;
    EXPECT_EQ(g[i].phase, w[i].phase) << "cell " << i;
    EXPECT_EQ(g[i].messages, w[i].messages) << "cell " << i;
    EXPECT_EQ(bits(g[i].bytes), bits(w[i].bytes)) << "cell " << i;
    EXPECT_EQ(bits(g[i].wait_s), bits(w[i].wait_s)) << "cell " << i;
  }
}

struct Cell {
  int src;
  int dst;
  CommPhase phase;
};

void run_seed(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  auto below = [&rng](int n) {
    return static_cast<int>(rng() % static_cast<unsigned>(n));
  };
  constexpr int kRankChoices[] = {4, 64, 256};
  const int ranks = kRankChoices[seed % 3];
  const int lanes = 1 + below(8);
  const int records = 50 + below(2000);
  auto fresh = [&] {
    return Cell{below(ranks), below(ranks),
                static_cast<CommPhase>(below(kPhases))};
  };
  // A small hot set, so most records hit a cell that already exists.
  std::vector<Cell> hot;
  for (int i = 0; i < 6; ++i) hot.push_back(fresh());

  CommMatrix all;
  reference::CommMatrix all_ref;
  for (int lane = 0; lane < lanes; ++lane) {
    CommMatrix mine;
    reference::CommMatrix ref;
    for (int r = 0; r < records; ++r) {
      Cell c = fresh();
      if (below(100) < 60) c = hot[static_cast<std::size_t>(below(6))];
      const double value = (1 + below(1000)) / 7.0;
      if (below(100) < 60) {
        mine.record_send(c.src, c.dst, c.phase, value * 1024.0);
        ref.record_send(c.src, c.dst, c.phase, value * 1024.0);
      } else {
        mine.record_wait(c.src, c.dst, c.phase, value * 1e-3);
        ref.record_wait(c.src, c.dst, c.phase, value * 1e-3);
      }
    }
    expect_same(mine, ref);
    all += mine;
    all_ref += ref;
  }
  expect_same(all, all_ref);
}

TEST(CommMatrixDifferential, SeededLanesFoldBitIdentically) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    run_seed(seed);
    ASSERT_FALSE(HasFailure()) << "seed " << seed;
  }
}

// Every (src, dst, phase) of a 256-rank all-pairs matrix over three
// phases, recorded in a shuffled order: the cell index grows many times.
TEST(CommMatrixDifferential, AllPairsInShuffledOrder) {
  constexpr int kRanks = 256;
  std::vector<Cell> cells;
  for (int src = 0; src < kRanks; ++src) {
    for (int dst = 0; dst < kRanks; ++dst) {
      if (src == dst) continue;
      for (int phase = 0; phase < 3; ++phase) {
        cells.push_back(Cell{src, dst, static_cast<CommPhase>(phase)});
      }
    }
  }
  std::shuffle(cells.begin(), cells.end(), std::mt19937_64(11));
  CommMatrix mine;
  reference::CommMatrix ref;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    mine.record_send(c.src, c.dst, c.phase, 0.1 * static_cast<double>(i));
    ref.record_send(c.src, c.dst, c.phase, 0.1 * static_cast<double>(i));
    mine.record_wait(c.dst, c.src, c.phase, 1e-7 * static_cast<double>(i));
    ref.record_wait(c.dst, c.src, c.phase, 1e-7 * static_cast<double>(i));
  }
  expect_same(mine, ref);
  // Folding a matrix into itself doubles every cell in place.
  mine += mine;
  ref += ref;
  expect_same(mine, ref);
}

}  // namespace
}  // namespace hetscale::obs
