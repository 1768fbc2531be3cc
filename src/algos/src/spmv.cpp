#include "hetscale/algos/spmv.hpp"

#include <algorithm>
#include <memory>
#include <set>
#include <utility>

#include "charge_ledger.hpp"
#include "hetscale/algos/protocol.hpp"
#include "hetscale/dist/distribution.hpp"
#include "hetscale/support/error.hpp"
#include "hetscale/support/rng.hpp"
#include "hetscale/vmpi/payload.hpp"
#include "setup.hpp"

namespace hetscale::algos {

namespace {

using des::Task;
using vmpi::Comm;
using vmpi::Payload;

constexpr int kTagRows = 500;

/// Modeled wire size of a CSR row block: a 4-byte column index and an
/// 8-byte value per nonzero plus an 8-byte extent per row (and one for the
/// block header), matching the usual int32/double CSR layout.
double block_bytes(std::int64_t rows, std::int64_t nnz) {
  return 12.0 * static_cast<double>(nnz) +
         8.0 * static_cast<double>(rows + 1);
}

struct SpmvShared {
  std::int64_t n = 0;
  std::int64_t sweeps = 0;
  bool with_data = true;
  SpmvRowSplit split;
  CsrMatrix csr;          ///< root's matrix (always built: sizes drive time)
  std::vector<double> x;  ///< root's working vector (assembled y each sweep)
  std::vector<double> y;  ///< final result at root
  ChargeLedger charged;
};

Task<void> spmv_rank(Comm& comm, SpmvShared& sh) {
  const int rank = comm.rank();
  const int p = comm.size();
  const auto r = static_cast<std::size_t>(rank);
  const SpmvRowSplit& split = sh.split;
  const std::int64_t cnt = split.counts[r];
  const std::int64_t off = split.offsets[r];
  const std::int64_t nnzb = split.nnz_counts[r];
  const double vec_bytes = static_cast<double>(sh.n) * 8.0;

  co_await comm.bcast(kRoot, kMetadataBytes, {});

  // ---- Step 1: distribute CSR row blocks ----
  // Wire format (doubles, exact for the index magnitudes involved):
  // per-row nonzero counts, then column indices, then values.
  CsrMatrix local;  // non-root block, rows rebased to [0, cnt)
  if (rank == kRoot) {
    for (int dst = 0; dst < p; ++dst) {
      if (dst == kRoot) continue;
      const auto d = static_cast<std::size_t>(dst);
      const std::int64_t dcnt = split.counts[d];
      const std::int64_t doff = split.offsets[d];
      const std::int64_t dnnz = split.nnz_counts[d];
      Payload payload;
      if (sh.with_data) {
        payload = Payload::buffer(static_cast<std::size_t>(dcnt + 2 * dnnz));
        auto out = payload.doubles();
        std::size_t w = 0;
        const std::size_t k0 = static_cast<std::size_t>(
            sh.csr.row_ptr[static_cast<std::size_t>(doff)]);
        const std::size_t k1 = static_cast<std::size_t>(
            sh.csr.row_ptr[static_cast<std::size_t>(doff + dcnt)]);
        for (std::int64_t i = 0; i < dcnt; ++i) {
          const auto row = static_cast<std::size_t>(doff + i);
          out[w++] = static_cast<double>(sh.csr.row_ptr[row + 1] -
                                         sh.csr.row_ptr[row]);
        }
        for (std::size_t k = k0; k < k1; ++k) {
          out[w++] = static_cast<double>(sh.csr.cols[k]);
        }
        for (std::size_t k = k0; k < k1; ++k) out[w++] = sh.csr.vals[k];
      }
      co_await comm.send(dst, kTagRows, block_bytes(dcnt, dnnz),
                         std::move(payload));
    }
  } else {
    auto message = co_await comm.recv(kRoot, kTagRows);
    if (sh.with_data) {
      const auto in = message.payload.doubles();
      local.n = sh.n;
      local.row_ptr.assign(1, 0);
      local.row_ptr.reserve(static_cast<std::size_t>(cnt) + 1);
      std::size_t w = 0;
      for (std::int64_t i = 0; i < cnt; ++i) {
        local.row_ptr.push_back(local.row_ptr.back() +
                                static_cast<std::int64_t>(in[w++]));
      }
      local.cols.reserve(static_cast<std::size_t>(nnzb));
      for (std::int64_t k = 0; k < nnzb; ++k) {
        local.cols.push_back(static_cast<std::int64_t>(in[w++]));
      }
      local.vals.assign(in.begin() + static_cast<std::ptrdiff_t>(w),
                        in.end());
    }
  }

  // ---- Step 2: broadcast the initial x ----
  std::vector<double> x;
  {
    Payload x0;
    if (rank == kRoot && sh.with_data) {
      x0 = Payload::copy_of(std::span<const double>(sh.x));
    }
    Payload xb = co_await comm.bcast(kRoot, vec_bytes, std::move(x0));
    if (sh.with_data) {
      const auto src = rank == kRoot ? std::span<const double>(sh.x)
                                     : std::span<const double>(xb.doubles());
      x.assign(src.begin(), src.end());
    }
  }

  // ---- Step 3: sweeps of y = A x, exchanged with a ring allgather ----
  // Every rank needs the full next x, so the blocks trade symmetrically
  // around the ring — there is no root hot spot, and a sweep's critical
  // path is the slowest rank's compute plus the (split-independent) ring.
  // The ring's per-round size is modeled as the mean block (the payloads
  // themselves carry each rank's true block).
  const double ring_bytes = vec_bytes / static_cast<double>(p);
  for (std::int64_t s = 0; s < sh.sweeps; ++s) {
    co_await sh.charged.charge(comm, 2.0 * static_cast<double>(nnzb),
                               kSpmvStreamEfficiency);
    Payload y_block;
    if (sh.with_data && cnt > 0) {
      y_block = Payload::buffer(static_cast<std::size_t>(cnt));
      if (rank == kRoot) {
        spmv_rows(sh.csr, off, off + cnt, x, y_block.doubles());
      } else {
        spmv_rows(local, 0, cnt, x, y_block.doubles());
      }
    }
    auto parts = co_await comm.allgather(ring_bytes, std::move(y_block));
    if (sh.with_data) {
      for (int src = 0; src < p; ++src) {
        const auto i = static_cast<std::size_t>(src);
        if (split.counts[i] == 0) continue;
        const auto block = parts[i].doubles();
        std::copy(block.begin(), block.end(),
                  x.begin() + static_cast<std::ptrdiff_t>(split.offsets[i]));
      }
    }
  }

  if (rank == kRoot && sh.with_data) sh.y = std::move(x);
}

}  // namespace

CsrMatrix make_synthetic_csr(std::int64_t n, std::uint64_t seed) {
  HETSCALE_REQUIRE(n >= 1, "synthetic CSR needs n >= 1");
  CsrMatrix m;
  m.n = n;
  m.row_ptr.reserve(static_cast<std::size_t>(n) + 1);
  m.row_ptr.push_back(0);
  for (std::int64_t i = 0; i < n; ++i) {
    // Per-row hash stream: the block a rank owns is the same whether the
    // matrix is generated whole or row-by-row.
    SplitMix64 h(seed ^
                 (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1)));
    const std::int64_t target =
        std::min<std::int64_t>(n, 4 + static_cast<std::int64_t>(h.next() % 13));
    std::set<std::int64_t> row_cols{i};
    while (static_cast<std::int64_t>(row_cols.size()) < target) {
      row_cols.insert(static_cast<std::int64_t>(
          h.next() % static_cast<std::uint64_t>(n)));
    }
    for (const std::int64_t c : row_cols) {
      m.cols.push_back(c);
      const double u = static_cast<double>(h.next() >> 11) * 0x1.0p-53;
      m.vals.push_back(2.0 * u - 1.0);
    }
    m.row_ptr.push_back(m.nnz());
  }
  return m;
}

void spmv_rows(const CsrMatrix& a, std::int64_t row_begin,
               std::int64_t row_end, std::span<const double> x,
               std::span<double> y) {
  HETSCALE_REQUIRE(0 <= row_begin && row_begin <= row_end &&
                       row_end < static_cast<std::int64_t>(a.row_ptr.size()),
                   "spmv_rows: row range out of bounds");
  for (std::int64_t i = row_begin; i < row_end; ++i) {
    double acc = 0.0;
    const auto k0 = static_cast<std::size_t>(
        a.row_ptr[static_cast<std::size_t>(i)]);
    const auto k1 = static_cast<std::size_t>(
        a.row_ptr[static_cast<std::size_t>(i) + 1]);
    for (std::size_t k = k0; k < k1; ++k) {
      acc += a.vals[k] * x[static_cast<std::size_t>(a.cols[k])];
    }
    y[static_cast<std::size_t>(i - row_begin)] = acc;
  }
}

SpmvRowSplit spmv_row_split(const CsrMatrix& csr,
                            const std::vector<double>& speeds,
                            SpmvDistribution distribution) {
  const int p = static_cast<int>(speeds.size());
  SpmvRowSplit split;
  split.counts = distribution == SpmvDistribution::kHeterogeneousBlock
                     ? dist::het_block_counts(speeds, csr.n)
                     : dist::block_counts(p, csr.n);
  split.offsets = dist::block_offsets(split.counts);
  split.offsets.pop_back();
  for (std::size_t i = 0; i < split.counts.size(); ++i) {
    const auto lo = static_cast<std::size_t>(split.offsets[i]);
    const auto hi = lo + static_cast<std::size_t>(split.counts[i]);
    split.nnz_counts.push_back(csr.row_ptr[hi] - csr.row_ptr[lo]);
  }
  split.work_imbalance = dist::imbalance(speeds, split.nnz_counts);
  return split;
}

SpmvResult run_parallel_spmv(vmpi::Machine& machine,
                             const SpmvOptions& options) {
  HETSCALE_REQUIRE(options.n >= 1, "SpMV needs n >= 1");
  HETSCALE_REQUIRE(options.sweeps >= 1, "SpMV needs sweeps >= 1");
  const int p = machine.world_size();

  auto shared = std::make_shared<SpmvShared>();
  shared->charged.reset(p);
  shared->n = options.n;
  shared->sweeps = options.sweeps;
  shared->with_data = options.with_data;

  // The structure (not just the values) drives the simulated time, so the
  // matrix is built even for timing-only runs.
  shared->csr = make_synthetic_csr(options.n, options.seed);
  shared->split = spmv_row_split(
      shared->csr, rank_speeds(machine, options.speeds), options.distribution);

  if (options.with_data) {
    Rng rng(options.seed);
    shared->x.resize(static_cast<std::size_t>(options.n));
    for (auto& v : shared->x) v = rng.uniform(-1.0, 1.0);
  }

  auto run = machine.run([shared](Comm& comm) -> Task<void> {
    return spmv_rank(comm, *shared);
  });

  SpmvResult result;
  result.run = std::move(run);
  result.n = options.n;
  result.nnz = shared->csr.nnz();
  result.work_flops = static_cast<double>(options.sweeps) * 2.0 *
                      static_cast<double>(result.nnz);
  result.charged_flops = shared->charged.total();
  result.work_imbalance = shared->split.work_imbalance;
  result.y = std::move(shared->y);
  return result;
}

}  // namespace hetscale::algos
