#include "hetscale/algos/jacobi.hpp"

#include <memory>
#include <utility>

#include "charge_ledger.hpp"
#include "hetscale/algos/protocol.hpp"
#include "hetscale/dist/distribution.hpp"
#include "hetscale/kernels/flops.hpp"
#include "hetscale/support/error.hpp"
#include "hetscale/support/rng.hpp"
#include "hetscale/vmpi/payload.hpp"
#include "setup.hpp"

namespace hetscale::algos {

namespace {

using des::Task;
using vmpi::Comm;
using vmpi::Payload;

constexpr int kTagBand = 300;
constexpr int kTagGhostDown = 301;  ///< carries a row travelling to rank+1
constexpr int kTagGhostUp = 302;    ///< carries a row travelling to rank-1
constexpr int kTagCollect = 303;

struct JacobiShared {
  std::int64_t n = 0;
  std::int64_t sweeps = 0;
  bool with_data = true;
  std::uint64_t seed = 44;
  std::vector<std::int64_t> counts;   ///< interior rows per rank
  std::vector<std::int64_t> offsets;  ///< first interior row per rank (1-based grid row)
  std::vector<double> grid0;          ///< initial grid at root
  std::vector<double> grid;           ///< final grid at root
  ChargeLedger charged;
};

std::vector<double> make_grid(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> grid(static_cast<std::size_t>(n * n));
  for (auto& v : grid) v = rng.uniform(0.0, 1.0);
  return grid;
}

void sweep_band(std::vector<double>& local, std::vector<double>& scratch,
                std::int64_t n, std::int64_t count) {
  // local is (count + 2) x n: ghost row, band rows, ghost row.
  const auto w = static_cast<std::size_t>(n);
  for (std::int64_t r = 1; r <= count; ++r) {
    const double* up = local.data() + static_cast<std::size_t>(r - 1) * w;
    const double* mid = local.data() + static_cast<std::size_t>(r) * w;
    const double* down = local.data() + static_cast<std::size_t>(r + 1) * w;
    double* out = scratch.data() + static_cast<std::size_t>(r) * w;
    out[0] = mid[0];
    out[w - 1] = mid[w - 1];
    for (std::size_t c = 1; c + 1 < w; ++c) {
      out[c] = 0.25 * (up[c] + down[c] + mid[c - 1] + mid[c + 1]);
    }
  }
  // Band rows move; ghosts are refreshed from neighbours next sweep.
  for (std::int64_t r = 1; r <= count; ++r) {
    const auto base = static_cast<std::size_t>(r) * w;
    std::copy(scratch.begin() + static_cast<std::ptrdiff_t>(base),
              scratch.begin() + static_cast<std::ptrdiff_t>(base + w),
              local.begin() + static_cast<std::ptrdiff_t>(base));
  }
}

Task<void> jacobi_rank(Comm& comm, JacobiShared& sh) {
  const int rank = comm.rank();
  const int p = comm.size();
  const std::int64_t n = sh.n;
  const auto w = static_cast<std::size_t>(n);
  const auto count = sh.counts[static_cast<std::size_t>(rank)];
  const auto first_row = sh.offsets[static_cast<std::size_t>(rank)];
  const double row_bytes = static_cast<double>(n) * 8.0;

  co_await comm.bcast(kRoot, kMetadataBytes, {});

  // ---- Distribution: each rank gets its band plus initial ghost rows ----
  std::vector<double> local;  // (count + 2) x n
  if (rank == kRoot) {
    for (int dst = 0; dst < p; ++dst) {
      if (dst == kRoot) continue;
      Payload payload;
      const auto dst_count = sh.counts[static_cast<std::size_t>(dst)];
      if (sh.with_data) {
        const auto dst_first = sh.offsets[static_cast<std::size_t>(dst)];
        payload = Payload::copy_of(
            std::span<const double>(sh.grid0)
                .subspan(static_cast<std::size_t>((dst_first - 1) * n),
                         static_cast<std::size_t>((dst_count + 2) * n)));
      }
      co_await comm.send(dst, kTagBand,
                         row_bytes * static_cast<double>(dst_count + 2),
                         std::move(payload));
    }
    if (sh.with_data) {
      local.assign(
          sh.grid0.begin() + static_cast<std::ptrdiff_t>((first_row - 1) * n),
          sh.grid0.begin() +
              static_cast<std::ptrdiff_t>((first_row + count + 1) * n));
    }
  } else {
    auto message = co_await comm.recv(kRoot, kTagBand);
    if (sh.with_data) {
      const auto band = message.payload.doubles();
      local.assign(band.begin(), band.end());
    }
  }
  std::vector<double> scratch(sh.with_data ? local.size() : 0);

  // ---- Sweeps with nearest-neighbour ghost exchange ----
  for (std::int64_t s = 0; s < sh.sweeps; ++s) {
    // Post sends first (sends are buffered: no rendezvous deadlock).
    if (rank > 0) {
      // Ghost rows ride pooled buffers: every sweep reuses the same
      // size-class blocks, so steady-state exchange allocates nothing.
      Payload top;
      if (sh.with_data) {
        top = Payload::copy_of(std::span<const double>(local).subspan(w, w));
      }
      co_await comm.send(rank - 1, kTagGhostUp, row_bytes, std::move(top));
    }
    if (rank + 1 < p) {
      Payload bottom;
      if (sh.with_data) {
        bottom = Payload::copy_of(std::span<const double>(local).subspan(
            static_cast<std::size_t>(count) * w, w));
      }
      co_await comm.send(rank + 1, kTagGhostDown, row_bytes,
                         std::move(bottom));
    }
    if (rank > 0) {
      auto message = co_await comm.recv(rank - 1, kTagGhostDown);
      if (sh.with_data) {
        const auto ghost = message.payload.doubles();
        std::copy(ghost.begin(), ghost.end(), local.begin());
      }
    }
    if (rank + 1 < p) {
      auto message = co_await comm.recv(rank + 1, kTagGhostUp);
      if (sh.with_data) {
        const auto ghost = message.payload.doubles();
        std::copy(ghost.begin(), ghost.end(),
                  local.begin() + static_cast<std::ptrdiff_t>(
                                      static_cast<std::size_t>(count + 1) * w));
      }
    }

    co_await sh.charged.charge(comm, kernels::jacobi_sweep_flops(n, count));
    if (sh.with_data) sweep_band(local, scratch, n, count);
  }

  // ---- Collection ----
  if (rank != kRoot) {
    Payload payload;
    if (sh.with_data) {
      payload = Payload::copy_of(std::span<const double>(local).subspan(
          w, static_cast<std::size_t>(count) * w));
    }
    co_await comm.send(kRoot, kTagCollect,
                       row_bytes * static_cast<double>(count),
                       std::move(payload));
    co_return;
  }

  if (sh.with_data) {
    sh.grid = sh.grid0;  // boundaries stay fixed
    std::copy(local.begin() + static_cast<std::ptrdiff_t>(w),
              local.begin() + static_cast<std::ptrdiff_t>(
                                  static_cast<std::size_t>(count + 1) * w),
              sh.grid.begin() + static_cast<std::ptrdiff_t>(first_row * n));
  }
  for (int src = 0; src < p; ++src) {
    if (src == kRoot) continue;
    auto message = co_await comm.recv(src, kTagCollect);
    if (sh.with_data) {
      const auto band = message.payload.doubles();
      const auto src_first = sh.offsets[static_cast<std::size_t>(src)];
      std::copy(band.begin(), band.end(),
                sh.grid.begin() +
                    static_cast<std::ptrdiff_t>(src_first * n));
    }
  }
}

}  // namespace

double jacobi_workload(std::int64_t n, std::int64_t sweeps) {
  return static_cast<double>(sweeps) *
         kernels::jacobi_sweep_flops(n, n - 2);
}

std::int64_t jacobi_min_n(int ranks) {
  return static_cast<std::int64_t>(ranks) + 2;
}

JacobiResult run_parallel_jacobi(vmpi::Machine& machine,
                                 const JacobiOptions& options) {
  HETSCALE_REQUIRE(options.n >= 3, "Jacobi needs n >= 3");
  HETSCALE_REQUIRE(options.sweeps >= 1, "Jacobi needs sweeps >= 1");
  const int p = machine.world_size();
  HETSCALE_REQUIRE(options.n >= jacobi_min_n(p),
                   "Jacobi needs at least one interior row per rank");

  auto shared = std::make_shared<JacobiShared>();
  shared->charged.reset(p);
  shared->n = options.n;
  shared->sweeps = options.sweeps;
  shared->with_data = options.with_data;
  shared->seed = options.seed;

  shared->counts = dist::het_block_counts(
      rank_speeds(machine, options.speeds), options.n - 2);
  shared->offsets.resize(static_cast<std::size_t>(p));
  std::int64_t row = 1;  // interior rows start at grid row 1
  for (int r = 0; r < p; ++r) {
    shared->offsets[static_cast<std::size_t>(r)] = row;
    row += shared->counts[static_cast<std::size_t>(r)];
  }

  if (options.with_data) shared->grid0 = make_grid(options.n, options.seed);

  auto run = machine.run([shared](Comm& comm) -> Task<void> {
    return jacobi_rank(comm, *shared);
  });

  JacobiResult result;
  result.run = std::move(run);
  result.n = options.n;
  result.sweeps = options.sweeps;
  result.work_flops = jacobi_workload(options.n, options.sweeps);
  result.charged_flops = shared->charged.total();
  result.grid = std::move(shared->grid);
  return result;
}

std::vector<double> jacobi_reference(std::int64_t n, std::int64_t sweeps,
                                     std::uint64_t seed) {
  HETSCALE_REQUIRE(n >= 3 && sweeps >= 1, "need n >= 3 and sweeps >= 1");
  std::vector<double> grid = make_grid(n, seed);
  std::vector<double> next = grid;
  const auto w = static_cast<std::size_t>(n);
  for (std::int64_t s = 0; s < sweeps; ++s) {
    for (std::size_t r = 1; r + 1 < w; ++r) {
      for (std::size_t c = 1; c + 1 < w; ++c) {
        next[r * w + c] = 0.25 * (grid[(r - 1) * w + c] + grid[(r + 1) * w + c] +
                                  grid[r * w + c - 1] + grid[r * w + c + 1]);
      }
    }
    std::swap(grid, next);
  }
  return grid;
}

}  // namespace hetscale::algos
