#include "hetscale/dist/grid.hpp"

#include <algorithm>
#include <numeric>

#include "hetscale/support/error.hpp"

namespace hetscale::dist {

namespace {
int squarest_rows(int p) {
  int best = 1;
  for (int r = 1; r * r <= p; ++r) {
    if (p % r == 0) best = r;
  }
  return best;
}
}  // namespace

ProcessGrid::ProcessGrid(int rows, int cols, std::vector<int> slot_rank)
    : rows_(rows), cols_(cols), slot_rank_(std::move(slot_rank)) {
  const int p = rows_ * cols_;
  row_of_.assign(static_cast<std::size_t>(p), -1);
  col_of_.assign(static_cast<std::size_t>(p), -1);
  for (int gr = 0; gr < rows_; ++gr) {
    for (int gc = 0; gc < cols_; ++gc) {
      const int rank = slot_rank_[static_cast<std::size_t>(gr * cols_ + gc)];
      HETSCALE_REQUIRE(rank >= 0 && rank < p, "grid slot rank out of range");
      HETSCALE_REQUIRE(row_of_[static_cast<std::size_t>(rank)] == -1,
                       "rank placed on two grid slots");
      row_of_[static_cast<std::size_t>(rank)] = gr;
      col_of_[static_cast<std::size_t>(rank)] = gc;
    }
  }
}

ProcessGrid ProcessGrid::squarest(int p) {
  HETSCALE_REQUIRE(p >= 1, "need at least one rank");
  const int r = squarest_rows(p);
  std::vector<int> slots(static_cast<std::size_t>(p));
  std::iota(slots.begin(), slots.end(), 0);
  return ProcessGrid(r, p / r, std::move(slots));
}

ProcessGrid ProcessGrid::speed_balanced(std::span<const double> speeds) {
  const int p = static_cast<int>(speeds.size());
  HETSCALE_REQUIRE(p >= 1, "need at least one rank");
  for (double s : speeds) {
    HETSCALE_REQUIRE(s > 0.0, "processor speeds must be positive");
  }
  const int r = squarest_rows(p);
  const int c = p / r;

  // Fastest-first LPT deal onto grid rows: each rank joins the row with the
  // least aggregate speed that still has a free slot.
  std::vector<int> order(static_cast<std::size_t>(p));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    if (speeds[static_cast<std::size_t>(a)] !=
        speeds[static_cast<std::size_t>(b)]) {
      return speeds[static_cast<std::size_t>(a)] >
             speeds[static_cast<std::size_t>(b)];
    }
    return a < b;
  });
  std::vector<std::vector<int>> row_ranks(static_cast<std::size_t>(r));
  std::vector<double> row_speed(static_cast<std::size_t>(r), 0.0);
  for (int rank : order) {
    int best = -1;
    for (int gr = 0; gr < r; ++gr) {
      if (static_cast<int>(row_ranks[static_cast<std::size_t>(gr)].size()) ==
          c) {
        continue;
      }
      if (best == -1 || row_speed[static_cast<std::size_t>(gr)] <
                            row_speed[static_cast<std::size_t>(best)]) {
        best = gr;
      }
    }
    row_ranks[static_cast<std::size_t>(best)].push_back(rank);
    row_speed[static_cast<std::size_t>(best)] +=
        speeds[static_cast<std::size_t>(rank)];
  }

  // Within each row (members are already fastest-first), deal onto the
  // column with the least aggregate speed so far.
  std::vector<int> slots(static_cast<std::size_t>(p), -1);
  std::vector<double> col_speed(static_cast<std::size_t>(c), 0.0);
  for (int gr = 0; gr < r; ++gr) {
    std::vector<bool> used(static_cast<std::size_t>(c), false);
    for (int rank : row_ranks[static_cast<std::size_t>(gr)]) {
      int best = -1;
      for (int gc = 0; gc < c; ++gc) {
        if (used[static_cast<std::size_t>(gc)]) continue;
        if (best == -1 || col_speed[static_cast<std::size_t>(gc)] <
                              col_speed[static_cast<std::size_t>(best)]) {
          best = gc;
        }
      }
      used[static_cast<std::size_t>(best)] = true;
      col_speed[static_cast<std::size_t>(best)] +=
          speeds[static_cast<std::size_t>(rank)];
      slots[static_cast<std::size_t>(gr * c + best)] = rank;
    }
  }
  return ProcessGrid(r, c, std::move(slots));
}

int ProcessGrid::rank_at(int grid_row, int grid_col) const {
  HETSCALE_REQUIRE(grid_row >= 0 && grid_row < rows_, "grid row out of range");
  HETSCALE_REQUIRE(grid_col >= 0 && grid_col < cols_, "grid col out of range");
  return slot_rank_[static_cast<std::size_t>(grid_row * cols_ + grid_col)];
}

int ProcessGrid::row_of(int rank) const {
  HETSCALE_REQUIRE(rank >= 0 && rank < size(), "rank out of range");
  return row_of_[static_cast<std::size_t>(rank)];
}

int ProcessGrid::col_of(int rank) const {
  HETSCALE_REQUIRE(rank >= 0 && rank < size(), "rank out of range");
  return col_of_[static_cast<std::size_t>(rank)];
}

std::vector<int> ProcessGrid::row_members(int grid_row) const {
  std::vector<int> members(static_cast<std::size_t>(cols_));
  for (int gc = 0; gc < cols_; ++gc) {
    members[static_cast<std::size_t>(gc)] = rank_at(grid_row, gc);
  }
  return members;
}

std::vector<int> ProcessGrid::col_members(int grid_col) const {
  std::vector<int> members(static_cast<std::size_t>(rows_));
  for (int gr = 0; gr < rows_; ++gr) {
    members[static_cast<std::size_t>(gr)] = rank_at(gr, grid_col);
  }
  return members;
}

TileMap::TileMap(ProcessGrid grid, std::int64_t rows, std::int64_t cols,
                 std::int64_t tile_rows, std::int64_t tile_cols)
    : grid_(std::move(grid)),
      rows_(rows),
      cols_(cols),
      tile_rows_(tile_rows),
      tile_cols_(tile_cols) {
  HETSCALE_REQUIRE(rows_ >= 0 && cols_ >= 0,
                   "index space must be non-negative");
  HETSCALE_REQUIRE(tile_rows_ >= 1 && tile_cols_ >= 1,
                   "tile extent must be >= 1");
  tile_row_count_ = (rows_ + tile_rows_ - 1) / tile_rows_;
  tile_col_count_ = (cols_ + tile_cols_ - 1) / tile_cols_;
}

Tile TileMap::tile(std::int64_t ti, std::int64_t tj) const {
  HETSCALE_REQUIRE(ti >= 0 && ti < tile_row_count_, "tile row out of range");
  HETSCALE_REQUIRE(tj >= 0 && tj < tile_col_count_, "tile col out of range");
  Tile t;
  t.tile_row = ti;
  t.tile_col = tj;
  t.row0 = ti * tile_rows_;
  t.col0 = tj * tile_cols_;
  t.rows = std::min(tile_rows_, rows_ - t.row0);
  t.cols = std::min(tile_cols_, cols_ - t.col0);
  t.owner = owner(ti, tj);
  return t;
}

int TileMap::owner(std::int64_t ti, std::int64_t tj) const {
  return grid_.rank_at(static_cast<int>(ti % grid_.rows()),
                       static_cast<int>(tj % grid_.cols()));
}

std::vector<Tile> TileMap::tiles_of(int rank) const {
  std::vector<Tile> mine;
  const int gr = grid_.row_of(rank);
  const int gc = grid_.col_of(rank);
  for (std::int64_t ti = gr; ti < tile_row_count_; ti += grid_.rows()) {
    for (std::int64_t tj = gc; tj < tile_col_count_; tj += grid_.cols()) {
      mine.push_back(tile(ti, tj));
    }
  }
  return mine;
}

}  // namespace hetscale::dist
