// 2D process grids and block-cyclic tile maps.
//
// The paper's algorithms use 1D row distributions (distribution.hpp), but
// the isospeed metric is defined for *any* combination under *any* load
// split. This layer generalizes the distribution vocabulary to two
// dimensions, distributed-ranges style:
//
//   ProcessGrid  p ranks factored into an r x c grid. The speed-balanced
//                factory places ranks so each grid row's and column's
//                aggregate marked speed is as even as the shape allows —
//                SUMMA's row/column broadcasts then carry balanced panels.
//   TileMap      block-cyclic 2D tiling: tile (ti, tj) lives on the grid
//                slot (ti mod r, tj mod c). Provides each tile's extent
//                and owner, and per-owner tile lists.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace hetscale::dist {

/// An r x c arrangement of p ranks (r * c == p). Immutable once built.
class ProcessGrid {
 public:
  /// The squarest shape: r is the largest divisor of p with r <= sqrt(p)
  /// (so r <= c), ranks laid out row-major in rank order.
  static ProcessGrid squarest(int p);

  /// The squarest shape for speeds.size() ranks, with ranks placed to
  /// balance aggregate speed: each rank (fastest first) joins the grid row
  /// with the least speed so far, then within each row the columns are
  /// balanced the same way. Deterministic: ties go to the lower rank / the
  /// lower grid index.
  static ProcessGrid speed_balanced(std::span<const double> speeds);

  int rows() const { return rows_; }
  int cols() const { return cols_; }
  int size() const { return rows_ * cols_; }

  /// World rank occupying the grid slot (grid_row, grid_col).
  int rank_at(int grid_row, int grid_col) const;
  int row_of(int rank) const;
  int col_of(int rank) const;

  /// World ranks of one grid row, in ascending grid-column order.
  std::vector<int> row_members(int grid_row) const;
  /// World ranks of one grid column, in ascending grid-row order.
  std::vector<int> col_members(int grid_col) const;

 private:
  ProcessGrid(int rows, int cols, std::vector<int> slot_rank);

  int rows_;
  int cols_;
  std::vector<int> slot_rank_;  ///< row-major slot -> world rank
  std::vector<int> row_of_;     ///< world rank -> grid row
  std::vector<int> col_of_;     ///< world rank -> grid col
};

/// One tile of a block-cyclic tiling: its global extent and owner.
struct Tile {
  std::int64_t tile_row = 0;  ///< tile coordinates (ti, tj)
  std::int64_t tile_col = 0;
  std::int64_t row0 = 0;  ///< first global row / column covered
  std::int64_t col0 = 0;
  std::int64_t rows = 0;  ///< extent; edge tiles are truncated
  std::int64_t cols = 0;
  int owner = 0;  ///< world rank owning the tile

  std::int64_t elements() const { return rows * cols; }
};

/// Block-cyclic 2D tiling of a rows x cols index space over a ProcessGrid.
/// Tile (ti, tj) is owned by the rank at grid slot (ti mod r, tj mod c).
class TileMap {
 public:
  TileMap(ProcessGrid grid, std::int64_t rows, std::int64_t cols,
          std::int64_t tile_rows, std::int64_t tile_cols);

  const ProcessGrid& grid() const { return grid_; }
  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t tile_rows() const { return tile_rows_; }
  std::int64_t tile_cols() const { return tile_cols_; }
  std::int64_t tile_row_count() const { return tile_row_count_; }
  std::int64_t tile_col_count() const { return tile_col_count_; }

  /// The tile at tile coordinates (ti, tj), extent truncated at the edges.
  Tile tile(std::int64_t ti, std::int64_t tj) const;
  /// Owner of tile (ti, tj) — grid.rank_at(ti mod r, tj mod c).
  int owner(std::int64_t ti, std::int64_t tj) const;

  /// All tiles owned by a world rank, in (tile_row, tile_col) lex order.
  std::vector<Tile> tiles_of(int rank) const;

 private:
  ProcessGrid grid_;
  std::int64_t rows_;
  std::int64_t cols_;
  std::int64_t tile_rows_;
  std::int64_t tile_cols_;
  std::int64_t tile_row_count_;
  std::int64_t tile_col_count_;
};

}  // namespace hetscale::dist
