#include "hetscale/dist/grid.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "hetscale/support/error.hpp"

namespace hetscale::dist {
namespace {

TEST(ProcessGrid, SquarestPicksLargestDivisorBelowSqrt) {
  const std::vector<std::pair<int, std::pair<int, int>>> expect{
      {1, {1, 1}}, {2, {1, 2}},  {4, {2, 2}},  {6, {2, 3}},
      {7, {1, 7}}, {8, {2, 4}},  {12, {3, 4}}, {16, {4, 4}}};
  for (const auto& [p, shape] : expect) {
    const ProcessGrid grid = ProcessGrid::squarest(p);
    EXPECT_EQ(grid.rows(), shape.first) << "p=" << p;
    EXPECT_EQ(grid.cols(), shape.second) << "p=" << p;
    EXPECT_EQ(grid.size(), p);
  }
}

TEST(ProcessGrid, SlotAndRankLookupsAreInverse) {
  const ProcessGrid grid = ProcessGrid::squarest(12);
  std::vector<int> seen(12, 0);
  for (int gr = 0; gr < grid.rows(); ++gr) {
    for (int gc = 0; gc < grid.cols(); ++gc) {
      const int rank = grid.rank_at(gr, gc);
      EXPECT_EQ(grid.row_of(rank), gr);
      EXPECT_EQ(grid.col_of(rank), gc);
      ++seen[static_cast<std::size_t>(rank)];
    }
  }
  for (int count : seen) EXPECT_EQ(count, 1);  // a permutation of the ranks
}

TEST(ProcessGrid, MembersFollowGridOrder) {
  const ProcessGrid grid = ProcessGrid::squarest(6);  // 2 x 3, row-major
  EXPECT_EQ(grid.row_members(0), (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(grid.row_members(1), (std::vector<int>{3, 4, 5}));
  EXPECT_EQ(grid.col_members(1), (std::vector<int>{1, 4}));
}

TEST(ProcessGrid, SpeedBalancedEvensOutRowAggregates) {
  // Two fast and two slow ranks: rank-order placement would put both fast
  // ones in the same grid row; the balanced factory must split them.
  const std::vector<double> speeds{55.0, 55.0, 26.0, 26.0};
  const ProcessGrid grid = ProcessGrid::speed_balanced(speeds);
  ASSERT_EQ(grid.rows(), 2);
  ASSERT_EQ(grid.cols(), 2);
  for (int gr = 0; gr < 2; ++gr) {
    double row_speed = 0.0;
    for (int rank : grid.row_members(gr)) {
      row_speed += speeds[static_cast<std::size_t>(rank)];
    }
    EXPECT_DOUBLE_EQ(row_speed, 81.0) << "grid row " << gr;
  }
}

TEST(ProcessGrid, InvalidInputsRejected) {
  EXPECT_THROW(ProcessGrid::squarest(0), PreconditionError);
  EXPECT_THROW(ProcessGrid::speed_balanced(std::vector<double>{1.0, 0.0}),
               PreconditionError);
  const ProcessGrid grid = ProcessGrid::squarest(4);
  EXPECT_THROW(grid.rank_at(2, 0), PreconditionError);
  EXPECT_THROW(grid.row_of(4), PreconditionError);
}

TEST(TileMap, OwnerFollowsBlockCyclicFormula) {
  const TileMap map(ProcessGrid::squarest(4), 100, 100, 16, 16);
  const int r = map.grid().rows();
  const int c = map.grid().cols();
  for (std::int64_t ti = 0; ti < map.tile_row_count(); ++ti) {
    for (std::int64_t tj = 0; tj < map.tile_col_count(); ++tj) {
      EXPECT_EQ(map.owner(ti, tj),
                map.grid().rank_at(static_cast<int>(ti % r),
                                   static_cast<int>(tj % c)));
    }
  }
}

TEST(TileMap, EdgeTilesAreTruncated) {
  const TileMap map(ProcessGrid::squarest(4), 100, 70, 32, 32);
  EXPECT_EQ(map.tile_row_count(), 4);  // ceil(100 / 32)
  EXPECT_EQ(map.tile_col_count(), 3);  // ceil(70 / 32)
  const Tile corner = map.tile(3, 2);
  EXPECT_EQ(corner.row0, 96);
  EXPECT_EQ(corner.col0, 64);
  EXPECT_EQ(corner.rows, 4);
  EXPECT_EQ(corner.cols, 6);
  EXPECT_EQ(corner.elements(), 24);
}

TEST(TileMap, TilesOfPartitionTheTileSpace) {
  const TileMap map(ProcessGrid::squarest(4), 100, 100, 16, 16);
  std::int64_t tiles_seen = 0;
  std::int64_t elements_seen = 0;
  for (int rank = 0; rank < map.grid().size(); ++rank) {
    for (const Tile& t : map.tiles_of(rank)) {
      EXPECT_EQ(t.owner, rank);
      EXPECT_EQ(map.owner(t.tile_row, t.tile_col), rank);
      ++tiles_seen;
      elements_seen += t.elements();
    }
  }
  EXPECT_EQ(tiles_seen, map.tile_row_count() * map.tile_col_count());
  EXPECT_EQ(elements_seen, map.rows() * map.cols());
}

TEST(TileMap, InvalidInputsRejected) {
  EXPECT_THROW(TileMap(ProcessGrid::squarest(4), -1, 8, 4, 4),
               PreconditionError);
  EXPECT_THROW(TileMap(ProcessGrid::squarest(4), 8, 8, 0, 4),
               PreconditionError);
  const TileMap map(ProcessGrid::squarest(4), 8, 8, 4, 4);
  EXPECT_THROW(map.tile(2, 0), PreconditionError);
}

}  // namespace
}  // namespace hetscale::dist
