#include "ge_rows.hpp"

#include <algorithm>
#include <span>
#include <utility>

#include "hetscale/algos/protocol.hpp"
#include "hetscale/dist/distribution.hpp"
#include "hetscale/kernels/flops.hpp"
#include "hetscale/numeric/linsolve.hpp"
#include "hetscale/support/error.hpp"
#include "hetscale/support/rng.hpp"
#include "hetscale/vmpi/payload.hpp"
#include "setup.hpp"

namespace hetscale::algos {

namespace {

using des::Task;
using vmpi::Comm;
using vmpi::Payload;

constexpr int kTagRows = 100;
constexpr int kTagCollect = 101;

/// Modeled bytes of `rows` rows on the wire: n coefficients plus the rhs.
double rows_bytes(const GeRowFrame& frame, std::size_t rows) {
  return static_cast<double>(frame.n + 1) * 8.0 * static_cast<double>(rows);
}

/// Copy global row g of [a0 | b0] into `out` (row_stride() doubles).
void copy_system_row(const GeRowFrame& frame, std::int64_t g, double* out) {
  const auto row = frame.a0.row(static_cast<std::size_t>(g));
  std::copy(row.begin(), row.end(), out);
  out[static_cast<std::size_t>(frame.n)] =
      frame.b0[static_cast<std::size_t>(g)];
}

/// Scatter a slab of `block`'s rows (in the slab's own layout) into the
/// upper-triangular system u and rhs y.
void place_rows(const GeRowFrame& frame, const GeRowBlock& block,
                std::span<const double> slab, numeric::Matrix& u,
                std::vector<double>& y) {
  const std::size_t stride = frame.row_stride();
  HETSCALE_CHECK(slab.size() == block.rows.size() * stride,
                 "collected pack size mismatch");
  for (std::size_t k = 0; k < block.rows.size(); ++k) {
    const auto g = static_cast<std::size_t>(block.rows[k]);
    const double* base = slab.data() + k * stride;
    auto dst = u.row(g);
    std::copy(base, base + frame.n, dst.begin());
    y[g] = base[static_cast<std::size_t>(frame.n)];
  }
}

}  // namespace

GeRowFrame::GeRowFrame(const vmpi::Machine& machine, std::int64_t n,
                       bool with_data, std::vector<double> speeds)
    : n(n), with_data(with_data) {
  const int p = machine.world_size();
  owners = dist::het_cyclic_owners(rank_speeds(machine, std::move(speeds)), n);
  blocks.resize(static_cast<std::size_t>(p));
  for (std::int64_t g = 0; g < n; ++g) {
    blocks[static_cast<std::size_t>(owners[static_cast<std::size_t>(g)])]
        .rows.push_back(g);
  }
  charged.reset(p);
}

void GeRowFrame::generate_system(std::uint64_t seed) {
  Rng rng(seed);
  a0 = numeric::Matrix::random_diagonally_dominant(static_cast<std::size_t>(n),
                                                   rng);
  b0.resize(static_cast<std::size_t>(n));
  for (auto& v : b0) v = rng.uniform(-1.0, 1.0);
}

Task<void> ge_distribute(Comm& comm, GeRowFrame& frame) {
  GeRowBlock& mine = frame.block_of(comm);
  const std::size_t stride = frame.row_stride();

  co_await comm.bcast(kRoot, kMetadataBytes, {});

  if (comm.rank() != kRoot) {
    auto message = co_await comm.recv(kRoot, kTagRows);
    if (frame.with_data) {
      const auto doubles = message.payload.doubles();
      HETSCALE_CHECK(doubles.size() == mine.rows.size() * stride,
                     "row pack size mismatch");
      mine.slab.assign(doubles.begin(), doubles.end());
    }
    co_return;
  }

  for (int dst = 0; dst < comm.size(); ++dst) {
    if (dst == kRoot) continue;
    const auto& theirs = frame.blocks[static_cast<std::size_t>(dst)];
    Payload payload;
    if (frame.with_data) {
      payload = Payload::buffer(theirs.rows.size() * stride);
      double* out = payload.doubles().data();
      for (std::size_t k = 0; k < theirs.rows.size(); ++k) {
        copy_system_row(frame, theirs.rows[k], out + k * stride);
      }
    }
    co_await comm.send(dst, kTagRows, rows_bytes(frame, theirs.rows.size()),
                       std::move(payload));
  }
  if (frame.with_data) {
    mine.slab.resize(mine.rows.size() * stride);
    for (std::size_t k = 0; k < mine.rows.size(); ++k) {
      copy_system_row(frame, mine.rows[k], frame.local_row(mine, k));
    }
  }
}

Task<void> ge_collect(Comm& comm, GeRowFrame& frame) {
  GeRowBlock& mine = frame.block_of(comm);

  if (comm.rank() != kRoot) {
    Payload payload;
    if (frame.with_data) {
      payload = Payload::copy_of(std::span<const double>(mine.slab));
    }
    co_await comm.send(kRoot, kTagCollect, rows_bytes(frame, mine.rows.size()),
                       std::move(payload));
    co_return;
  }

  numeric::Matrix u;
  std::vector<double> y;
  if (frame.with_data) {
    u = numeric::Matrix(static_cast<std::size_t>(frame.n),
                        static_cast<std::size_t>(frame.n));
    y.resize(static_cast<std::size_t>(frame.n));
    place_rows(frame, mine, mine.slab, u, y);
  }
  for (int src = 0; src < comm.size(); ++src) {
    if (src == kRoot) continue;
    auto message = co_await comm.recv(src, kTagCollect);
    if (frame.with_data) {
      place_rows(frame, frame.blocks[static_cast<std::size_t>(src)],
                 message.payload.doubles(), u, y);
    }
  }

  co_await frame.charged.charge(comm, kernels::ge_backsub_flops(frame.n));
  if (frame.with_data) {
    frame.solution = numeric::back_substitute(u, y);
    frame.residual =
        numeric::residual_inf_norm(frame.a0, frame.solution, frame.b0);
  }
}

}  // namespace hetscale::algos
