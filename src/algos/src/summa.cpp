#include "hetscale/algos/summa.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <tuple>
#include <utility>

#include "charge_ledger.hpp"
#include "hetscale/algos/protocol.hpp"
#include "hetscale/dist/grid.hpp"
#include "hetscale/kernels/dispatch.hpp"
#include "hetscale/numeric/linsolve.hpp"
#include "hetscale/support/error.hpp"
#include "hetscale/vmpi/group.hpp"
#include "hetscale/vmpi/payload.hpp"
#include "setup.hpp"

namespace hetscale::algos {

namespace {

using des::Task;
using vmpi::Comm;
using vmpi::Payload;

constexpr int kTagTiles = 400;
constexpr int kTagCollect = 401;
// One fresh tag per panel step; A (row groups) and B (column groups) use
// disjoint ranges so a rank sitting in both kinds of broadcast at once
// never cross-matches.
constexpr int kTagAPanelBase = 1 << 20;
constexpr int kTagBPanelBase = 1 << 21;

using TileKey = std::pair<std::int64_t, std::int64_t>;

struct SummaShared {
  std::int64_t n = 0;
  bool with_data = true;
  std::optional<dist::TileMap> map;
  numeric::Matrix a;  ///< root's inputs
  numeric::Matrix b;
  numeric::Matrix c;  ///< gathered result at root
  ChargeLedger charged;
};

/// Copy one tile out of a row-major n x n matrix into a dense buffer.
void pack_tile(std::span<const double> m, std::int64_t n, const dist::Tile& t,
               double* out) {
  for (std::int64_t i = 0; i < t.rows; ++i) {
    const double* src = m.data() + (t.row0 + i) * n + t.col0;
    std::copy(src, src + t.cols, out + i * t.cols);
  }
}

void unpack_tile(const double* in, const dist::Tile& t, std::span<double> m,
                 std::int64_t n) {
  for (std::int64_t i = 0; i < t.rows; ++i) {
    std::copy(in + i * t.cols, in + (i + 1) * t.cols,
              m.data() + (t.row0 + i) * n + t.col0);
  }
}

Task<void> summa_rank(Comm& comm, SummaShared& sh) {
  const int rank = comm.rank();
  const int p = comm.size();
  const dist::TileMap& map = *sh.map;
  const dist::ProcessGrid& grid = map.grid();
  const int gr = grid.row_of(rank);
  const int gc = grid.col_of(rank);
  const std::int64_t n = sh.n;
  const std::int64_t steps = map.tile_row_count();
  const auto my_tiles = map.tiles_of(rank);

  co_await comm.bcast(kRoot, kMetadataBytes, {});

  // ---- Distribute A and B tiles (root ships each rank one packed slab) ----
  std::map<TileKey, std::vector<double>> a_tiles;
  std::map<TileKey, std::vector<double>> b_tiles;
  std::map<TileKey, std::vector<double>> c_tiles;
  if (rank == kRoot) {
    for (int dst = 0; dst < p; ++dst) {
      const auto tiles = map.tiles_of(dst);
      std::int64_t elements = 0;
      for (const auto& t : tiles) elements += t.elements();
      if (dst == kRoot) {
        if (sh.with_data) {
          for (const auto& t : tiles) {
            auto& a_buf = a_tiles[{t.tile_row, t.tile_col}];
            auto& b_buf = b_tiles[{t.tile_row, t.tile_col}];
            a_buf.resize(static_cast<std::size_t>(t.elements()));
            b_buf.resize(static_cast<std::size_t>(t.elements()));
            pack_tile(sh.a.data(), n, t, a_buf.data());
            pack_tile(sh.b.data(), n, t, b_buf.data());
          }
        }
        continue;
      }
      Payload payload;
      if (sh.with_data) {
        payload =
            Payload::buffer(static_cast<std::size_t>(2 * elements));
        auto out = payload.doubles();
        std::size_t at = 0;
        for (const auto& t : tiles) {
          pack_tile(sh.a.data(), n, t, out.data() + at);
          at += static_cast<std::size_t>(t.elements());
        }
        for (const auto& t : tiles) {
          pack_tile(sh.b.data(), n, t, out.data() + at);
          at += static_cast<std::size_t>(t.elements());
        }
      }
      co_await comm.send(dst, kTagTiles,
                         16.0 * static_cast<double>(elements),
                         std::move(payload));
    }
  } else {
    auto message = co_await comm.recv(kRoot, kTagTiles);
    if (sh.with_data) {
      const auto in = message.payload.doubles();
      std::size_t at = 0;
      for (const auto& t : my_tiles) {
        auto& buf = a_tiles[{t.tile_row, t.tile_col}];
        const auto end = at + static_cast<std::size_t>(t.elements());
        buf.assign(in.begin() + static_cast<std::ptrdiff_t>(at),
                   in.begin() + static_cast<std::ptrdiff_t>(end));
        at += static_cast<std::size_t>(t.elements());
      }
      for (const auto& t : my_tiles) {
        auto& buf = b_tiles[{t.tile_row, t.tile_col}];
        const auto end = at + static_cast<std::size_t>(t.elements());
        buf.assign(in.begin() + static_cast<std::ptrdiff_t>(at),
                   in.begin() + static_cast<std::ptrdiff_t>(end));
        at += static_cast<std::size_t>(t.elements());
      }
    }
  }

  // ---- Panel loop: row-broadcast A, column-broadcast B, local update ----
  vmpi::Group row_group(comm, grid.row_members(gr));
  vmpi::Group col_group(comm, grid.col_members(gc));

  for (std::int64_t k = 0; k < steps; ++k) {
    // A column-panel k restricted to this grid row: tiles (ti, k) with
    // ti = gr (mod r). Their owner sits at grid column k mod c.
    std::vector<dist::Tile> a_panel_tiles;
    for (std::int64_t ti = gr; ti < steps; ti += grid.rows()) {
      a_panel_tiles.push_back(map.tile(ti, k));
    }
    const int a_root = static_cast<int>(k % grid.cols());
    std::int64_t a_elements = 0;
    for (const auto& t : a_panel_tiles) a_elements += t.elements();
    Payload a_send;
    if (sh.with_data && row_group.rank() == a_root) {
      a_send = Payload::buffer(static_cast<std::size_t>(a_elements));
      auto out = a_send.doubles();
      std::size_t at = 0;
      for (const auto& t : a_panel_tiles) {
        const auto& buf = a_tiles.at({t.tile_row, t.tile_col});
        std::copy(buf.begin(), buf.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(at));
        at += buf.size();
      }
    }
    Payload a_panel = co_await row_group.bcast(
        a_root, kTagAPanelBase + static_cast<int>(k),
        8.0 * static_cast<double>(a_elements), std::move(a_send));

    // B row-panel k restricted to this grid column: tiles (k, tj) with
    // tj = gc (mod c). Their owner sits at grid row k mod r.
    std::vector<dist::Tile> b_panel_tiles;
    for (std::int64_t tj = gc; tj < steps; tj += grid.cols()) {
      b_panel_tiles.push_back(map.tile(k, tj));
    }
    const int b_root = static_cast<int>(k % grid.rows());
    std::int64_t b_elements = 0;
    for (const auto& t : b_panel_tiles) b_elements += t.elements();
    Payload b_send;
    if (sh.with_data && col_group.rank() == b_root) {
      b_send = Payload::buffer(static_cast<std::size_t>(b_elements));
      auto out = b_send.doubles();
      std::size_t at = 0;
      for (const auto& t : b_panel_tiles) {
        const auto& buf = b_tiles.at({t.tile_row, t.tile_col});
        std::copy(buf.begin(), buf.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(at));
        at += buf.size();
      }
    }
    Payload b_panel = co_await col_group.bcast(
        b_root, kTagBPanelBase + static_cast<int>(k),
        8.0 * static_cast<double>(b_elements), std::move(b_send));

    // Local update: C[ti,tj] += A[ti,k] · B[k,tj] for every owned C tile.
    const std::int64_t ek = map.tile(k, k).rows;
    double flops = 0.0;
    for (const auto& t : my_tiles) {
      flops += 2.0 * static_cast<double>(t.rows) *
               static_cast<double>(ek) * static_cast<double>(t.cols);
    }
    co_await sh.charged.charge(comm, flops);
    if (sh.with_data) {
      // Panel offsets of each tile row / tile column index.
      std::map<std::int64_t, std::size_t> a_offset;
      std::size_t at = 0;
      for (const auto& t : a_panel_tiles) {
        a_offset[t.tile_row] = at;
        at += static_cast<std::size_t>(t.elements());
      }
      std::map<std::int64_t, std::size_t> b_offset;
      at = 0;
      for (const auto& t : b_panel_tiles) {
        b_offset[t.tile_col] = at;
        at += static_cast<std::size_t>(t.elements());
      }
      const auto a_data = a_panel.doubles();
      const auto b_data = b_panel.doubles();
      for (const auto& t : my_tiles) {
        auto& c_buf = c_tiles[{t.tile_row, t.tile_col}];
        if (c_buf.empty()) {
          c_buf.assign(static_cast<std::size_t>(t.elements()), 0.0);
        }
        summa_tile_product(a_data.data() + a_offset.at(t.tile_row), t.rows,
                           ek, b_data.data() + b_offset.at(t.tile_col),
                           t.cols, c_buf.data());
      }
    }
  }

  // ---- Collect C at process 0 ----
  std::int64_t my_elements = 0;
  for (const auto& t : my_tiles) my_elements += t.elements();
  if (rank != kRoot) {
    Payload my_c;
    if (sh.with_data) {
      my_c = Payload::buffer(static_cast<std::size_t>(my_elements));
      auto out = my_c.doubles();
      std::size_t at = 0;
      for (const auto& t : my_tiles) {
        const auto& buf = c_tiles.at({t.tile_row, t.tile_col});
        std::copy(buf.begin(), buf.end(),
                  out.begin() + static_cast<std::ptrdiff_t>(at));
        at += buf.size();
      }
    }
    co_await comm.send(kRoot, kTagCollect,
                       8.0 * static_cast<double>(my_elements),
                       std::move(my_c));
    co_return;
  }

  if (sh.with_data) {
    sh.c = numeric::Matrix(static_cast<std::size_t>(n),
                           static_cast<std::size_t>(n));
    for (const auto& t : my_tiles) {
      unpack_tile(c_tiles.at({t.tile_row, t.tile_col}).data(), t, sh.c.data(),
                  n);
    }
  }
  for (int src = 0; src < p; ++src) {
    if (src == kRoot) continue;
    auto message = co_await comm.recv(src, kTagCollect);
    if (sh.with_data) {
      const auto in = message.payload.doubles();
      std::size_t at = 0;
      for (const auto& t : map.tiles_of(src)) {
        unpack_tile(in.data() + at, t, sh.c.data(), n);
        at += static_cast<std::size_t>(t.elements());
      }
    }
  }
}

}  // namespace

void summa_tile_product(const double* a, std::int64_t rows, std::int64_t inner,
                        const double* b, std::int64_t cols, double* c) {
  const auto m = static_cast<std::size_t>(rows);
  const auto kc = static_cast<std::size_t>(inner);
  const auto nc = static_cast<std::size_t>(cols);
  if (m == 0 || kc == 0 || nc == 0) return;
  const kernels::KernelOps& k = kernels::ops();
  // The B tile is already a contiguous kc x nc slab — it *is* the packed
  // panel mm_tile4 wants; no staging copy needed.
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* apack[4] = {a + i * kc, a + (i + 1) * kc, a + (i + 2) * kc,
                              a + (i + 3) * kc};
    double* cpack[4] = {c + i * nc, c + (i + 1) * nc, c + (i + 2) * nc,
                        c + (i + 3) * nc};
    k.mm_tile4(apack, b, kc, nc, cpack);
  }
  for (; i < m; ++i) {
    for (std::size_t kk = 0; kk < kc; ++kk) {
      k.axpy(a[i * kc + kk], b + kk * nc, c + i * nc, nc);
    }
  }
}

SummaResult run_parallel_summa(vmpi::Machine& machine,
                               const SummaOptions& options) {
  HETSCALE_REQUIRE(options.n >= 1, "SUMMA needs n >= 1");
  HETSCALE_REQUIRE(options.tile >= 1, "SUMMA needs tile >= 1");
  const int p = machine.world_size();

  const auto speeds = rank_speeds(machine, options.speeds);

  auto shared = std::make_shared<SummaShared>();
  shared->charged.reset(p);
  shared->n = options.n;
  shared->with_data = options.with_data;
  shared->map.emplace(dist::ProcessGrid::speed_balanced(speeds), options.n,
                      options.n, options.tile, options.tile);

  if (options.with_data) {
    std::tie(shared->a, shared->b) = mm_inputs(options.n, options.seed);
  }

  auto run = machine.run([shared](Comm& comm) -> Task<void> {
    return summa_rank(comm, *shared);
  });

  SummaResult result;
  result.run = std::move(run);
  result.n = options.n;
  result.grid_rows = shared->map->grid().rows();
  result.grid_cols = shared->map->grid().cols();
  result.work_flops = numeric::mm_workload(static_cast<double>(options.n));
  result.charged_flops = shared->charged.total();
  result.a = std::move(shared->a);
  result.b = std::move(shared->b);
  result.c = std::move(shared->c);
  return result;
}

}  // namespace hetscale::algos
