#include "hetscale/algos/ge_pivot.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "ge_rows.hpp"
#include "hetscale/kernels/blas1.hpp"
#include "hetscale/numeric/linsolve.hpp"
#include "hetscale/support/error.hpp"
#include "hetscale/support/rng.hpp"
#include "hetscale/vmpi/payload.hpp"

namespace hetscale::algos {

namespace {

using des::Task;
using vmpi::Comm;
using vmpi::Payload;

/// Row-swap exchange of step i travels with tag kTagSwapBase + i.
constexpr int kTagSwapBase = 1 << 22;
/// Pivot-search contribution: (|candidate|, row index) as two doubles.
constexpr double kSearchBytes = 16.0;

/// The GE row frame, whose blocks here hold global slot indices (a swap
/// moves a row's contents between slots), plus pivoting's own state.
struct Shared : GeRowFrame {
  using GeRowFrame::GeRowFrame;

  std::int64_t panel = 0;
  std::uint64_t seed = 0;
  /// pivot_inv[i]: 1 / diag recorded by slot i's owner when it normalized
  /// step i (owner-private bookkeeping; slot i never changes after step i).
  std::vector<double> pivot_inv;
  std::int64_t row_swaps = 0;
};

/// First local index whose global slot is >= g.
std::size_t local_lower_bound(const GeRowBlock& data, std::int64_t g) {
  return static_cast<std::size_t>(
      std::lower_bound(data.rows.begin(), data.rows.end(), g) -
      data.rows.begin());
}

/// Timing-only pivot choice for step i: a seeded hash over [i, n). All ranks
/// derive the same value locally; see the header for why data-free runs
/// model rather than replay the data-driven schedule.
std::int64_t surrogate_pivot(std::uint64_t seed, std::int64_t i,
                             std::int64_t n) {
  SplitMix64 mix(seed ^
                 (0x9e3779b97f4a7c15ULL * static_cast<std::uint64_t>(i + 1)));
  return i + static_cast<std::int64_t>(
                 mix.next() % static_cast<std::uint64_t>(n - i));
}

Task<void> eliminate(Comm& comm, Shared& sh) {
  const int rank = comm.rank();
  const int p = comm.size();
  const std::int64_t n = sh.n;
  const std::size_t stride = sh.row_stride();
  GeRowBlock& mine = sh.block_of(comm);
  // Per owned slot, the elimination factors recorded during the current
  // panel (factors[k][jj - p0] for panel step jj). Swaps move a row's
  // factor history along with its contents.
  std::vector<std::vector<double>> factors(mine.rows.size());
  // Scratch lists handed to the kernels (reused across steps).
  std::vector<double*> row_ptrs;
  std::vector<const double*> factor_rows;

  for (std::int64_t p0 = 0; p0 < n; p0 += sh.panel) {
    const std::int64_t p1 = std::min(p0 + sh.panel, n);
    const std::int64_t t_len = n - p1 + 1;  // trailing columns + in-row rhs

    for (std::int64_t i = p0; i < p1; ++i) {
      const int owner = sh.owners[static_cast<std::size_t>(i)];

      // ---- (1) pivot search: local argmax of |column i| over slots >= i,
      // gathered to slot i's owner, winner broadcast back ----
      const std::size_t cand_first = local_lower_bound(mine, i);
      const auto candidates = mine.rows.size() - cand_first;
      co_await sh.charged.charge(comm, static_cast<double>(candidates));
      double best_abs = -1.0;
      double best_row = -1.0;
      if (sh.with_data) {
        for (std::size_t k = cand_first; k < mine.rows.size(); ++k) {
          const double v =
              std::abs(sh.local_row(mine, k)[static_cast<std::size_t>(i)]);
          if (v > best_abs) {  // strict: the lowest row among equals wins
            best_abs = v;
            best_row = static_cast<double>(mine.rows[k]);
          }
        }
      }
      Payload search_payload;
      if (sh.with_data) {
        search_payload = Payload::buffer(2);
        search_payload.doubles()[0] = best_abs;
        search_payload.doubles()[1] = best_row;
      }
      std::vector<Payload> votes =
          co_await comm.gather(owner, kSearchBytes, std::move(search_payload));

      std::int64_t r = sh.with_data ? -1 : surrogate_pivot(sh.seed, i, n);
      if (rank == owner && sh.with_data) {
        double win_abs = -1.0;
        for (int src = 0; src < p; ++src) {
          const auto vote = votes[static_cast<std::size_t>(src)].doubles();
          if (vote[0] < 0.0) continue;  // rank owns no candidate slots
          if (vote[0] > win_abs ||
              (vote[0] == win_abs && vote[1] < static_cast<double>(r))) {
            win_abs = vote[0];
            r = static_cast<std::int64_t>(vote[1]);
          }
        }
        HETSCALE_CHECK(win_abs > 0.0, "pivoted GE: matrix is singular");
      }
      Payload chosen_payload;
      if (rank == owner && sh.with_data) {
        chosen_payload = Payload(static_cast<double>(r));
      }
      Payload chosen =
          co_await comm.bcast(owner, 8.0, std::move(chosen_payload));
      if (sh.with_data && rank != owner) {
        r = static_cast<std::int64_t>(chosen.scalar());
      }
      if (rank == owner && r != i) ++sh.row_swaps;

      // ---- (2) row swap: slots i and r exchange contents (full row plus
      // the row's panel factor history) ----
      if (r != i) {
        const int owner_r = sh.owners[static_cast<std::size_t>(r)];
        const std::size_t flen = static_cast<std::size_t>(i - p0);
        if (owner == owner_r) {
          if (rank == owner && sh.with_data) {
            const std::size_t ki = local_lower_bound(mine, i);
            const std::size_t kr = local_lower_bound(mine, r);
            double* row_i = sh.local_row(mine, ki);
            double* row_r = sh.local_row(mine, kr);
            std::swap_ranges(row_i, row_i + stride, row_r);
            std::swap(factors[ki], factors[kr]);
          }
        } else if (rank == owner || rank == owner_r) {
          const int peer = rank == owner ? owner_r : owner;
          const std::int64_t own_slot = rank == owner ? i : r;
          const double bytes =
              8.0 * static_cast<double>(stride + flen);
          const std::size_t local = local_lower_bound(mine, own_slot);
          Payload out;
          if (sh.with_data) {
            out = Payload::buffer(stride + flen);
            auto buf = out.doubles();
            const double* row = sh.local_row(mine, local);
            std::copy(row, row + stride, buf.begin());
            std::copy(factors[local].begin(), factors[local].end(),
                      buf.begin() + static_cast<std::ptrdiff_t>(stride));
          }
          const int tag = kTagSwapBase + static_cast<int>(i);
          co_await comm.send(peer, tag, bytes, std::move(out));
          auto message = co_await comm.recv(peer, tag);
          if (sh.with_data) {
            const auto buf = message.payload.doubles();
            HETSCALE_CHECK(buf.size() == stride + flen, "swap pack mismatch");
            std::copy(buf.begin(),
                      buf.begin() + static_cast<std::ptrdiff_t>(stride),
                      sh.local_row(mine, local));
            factors[local].assign(
                buf.begin() + static_cast<std::ptrdiff_t>(stride), buf.end());
          }
        }
      }

      // ---- (3) normalize the panel segment of the pivot row, broadcast ----
      const std::int64_t seg_len = p1 - i;
      Payload seg_payload;
      if (rank == owner) {
        co_await sh.charged.charge(comm, static_cast<double>(seg_len));
        if (sh.with_data) {
          const std::size_t ki = local_lower_bound(mine, i);
          double* row = sh.local_row(mine, ki);
          const double diag = row[static_cast<std::size_t>(i)];
          HETSCALE_CHECK(diag != 0.0, "pivoted GE: zero pivot after search");
          const double inv = 1.0 / diag;
          for (std::int64_t c = i; c < p1; ++c) {
            row[static_cast<std::size_t>(c)] *= inv;
          }
          sh.pivot_inv[static_cast<std::size_t>(i)] = inv;
          seg_payload = Payload::copy_of(std::span<const double>(
              row + i, static_cast<std::size_t>(seg_len)));
        }
      }
      Payload seg = co_await comm.bcast(
          owner, 8.0 * static_cast<double>(seg_len), std::move(seg_payload));

      // ---- (4) eager panel elimination of owned slots > i; the factor is
      // recorded for the deferred trailing update ----
      const std::size_t target_first = local_lower_bound(mine, i + 1);
      const auto targets = mine.rows.size() - target_first;
      if (targets > 0) {
        co_await sh.charged.charge(comm, static_cast<double>(targets) * 2.0 *
                                             static_cast<double>(seg_len));
        if (sh.with_data) {
          row_ptrs.clear();
          for (std::size_t k = target_first; k < mine.rows.size(); ++k) {
            double* row = sh.local_row(mine, k) + i;
            factors[k].push_back(row[0]);
            row_ptrs.push_back(row);
          }
          const double* pivot = seg.doubles().data();
          kernels::eliminate_block({&pivot, 1}, row_ptrs,
                                   static_cast<std::size_t>(seg_len));
        }
      }
    }

    // ---- (5) panel end: every pivot row's raw trailing part + factor
    // history is broadcast; every rank redundantly reconstructs the
    // normalized trailing rows, then applies the deferred updates ----
    const std::int64_t nb = p1 - p0;
    std::vector<std::vector<double>> t_norm(static_cast<std::size_t>(nb));
    std::vector<const double*> t_rows;  // t_norm[jj].data(), jj ascending
    double recon_flops = 0.0;
    for (std::int64_t ii = p0; ii < p1; ++ii) {
      const int owner = sh.owners[static_cast<std::size_t>(ii)];
      const std::size_t flen = static_cast<std::size_t>(ii - p0);
      Payload trail_payload;
      if (rank == owner && sh.with_data) {
        const std::size_t ki = local_lower_bound(mine, ii);
        trail_payload =
            Payload::buffer(flen + 1 + static_cast<std::size_t>(t_len));
        auto buf = trail_payload.doubles();
        std::copy(factors[ki].begin(), factors[ki].end(),
                  buf.begin());
        buf[flen] = sh.pivot_inv[static_cast<std::size_t>(ii)];
        const double* row = sh.local_row(mine, ki);
        std::copy(row + p1, row + n + 1,
                  buf.begin() + static_cast<std::ptrdiff_t>(flen + 1));
      }
      Payload trail = co_await comm.bcast(
          owner,
          8.0 * static_cast<double>(flen + 1 + static_cast<std::size_t>(t_len)),
          std::move(trail_payload));
      recon_flops += 2.0 * static_cast<double>(flen) *
                         static_cast<double>(t_len) +
                     static_cast<double>(t_len);
      if (sh.with_data) {
        const auto buf = trail.doubles();
        const double inv = buf[flen];
        auto& t = t_norm[static_cast<std::size_t>(ii - p0)];
        t.assign(buf.begin() + static_cast<std::ptrdiff_t>(flen + 1),
                 buf.end());
        // Apply the pivot row's own deferred updates (ascending, exactly the
        // unblocked order), then normalize with the recorded 1/diag.
        double* target = t.data();
        const double* history = buf.data();
        kernels::rank1_update({t_rows.data(), flen},
                              static_cast<std::size_t>(t_len), {&target, 1},
                              {&history, 1});
        for (std::int64_t c = 0; c < t_len; ++c) {
          t[static_cast<std::size_t>(c)] *= inv;
        }
        t_rows.push_back(t.data());
        if (rank == owner) {
          const std::size_t ki = local_lower_bound(mine, ii);
          std::copy(t.begin(), t.end(), sh.local_row(mine, ki) + p1);
        }
      }
    }
    // The reconstruction runs on every rank (redundant by design — it is
    // cheaper than round-tripping nb more broadcasts), then each rank
    // updates its own trailing rows.
    const std::size_t own_first = local_lower_bound(mine, p1);
    const auto own_rows = mine.rows.size() - own_first;
    const double update_flops = static_cast<double>(own_rows) *
                                static_cast<double>(nb) * 2.0 *
                                static_cast<double>(t_len);
    co_await sh.charged.charge(comm, recon_flops + update_flops);
    if (sh.with_data) {
      // All nb pivots in one pass over the trailing rows; per element the
      // order is still jj ascending.
      row_ptrs.clear();
      factor_rows.clear();
      for (std::size_t k = own_first; k < mine.rows.size(); ++k) {
        row_ptrs.push_back(sh.local_row(mine, k) + p1);
        factor_rows.push_back(factors[k].data());
      }
      kernels::rank1_update(t_rows, static_cast<std::size_t>(t_len), row_ptrs,
                            factor_rows);
      for (auto& f : factors) f.clear();
    }
  }
}

Task<void> pivot_rank(Comm& comm, Shared& sh) {
  co_await ge_distribute(comm, sh);
  co_await eliminate(comm, sh);
  co_await ge_collect(comm, sh);
}

}  // namespace

GePivotResult run_parallel_ge_pivot(vmpi::Machine& machine,
                                    const GePivotOptions& options) {
  HETSCALE_REQUIRE(options.n >= 1, "pivoted GE needs n >= 1");
  HETSCALE_REQUIRE(options.panel >= 1, "pivoted GE needs panel >= 1");

  auto shared = std::make_shared<Shared>(machine, options.n, options.with_data,
                                         options.speeds);
  shared->panel = options.panel;
  shared->seed = options.seed;
  shared->pivot_inv.assign(static_cast<std::size_t>(options.n), 0.0);

  if (options.with_data) {
    if (options.system_a.rows() > 0) {
      HETSCALE_REQUIRE(
          options.system_a.rows() == static_cast<std::size_t>(options.n) &&
              options.system_a.cols() == static_cast<std::size_t>(options.n) &&
              options.system_b.size() == static_cast<std::size_t>(options.n),
          "explicit system must be n x n with an n-vector rhs");
      shared->a0 = options.system_a;
      shared->b0 = options.system_b;
    } else {
      shared->generate_system(options.seed);
    }
  }

  auto run = machine.run([shared](Comm& comm) -> Task<void> {
    return pivot_rank(comm, *shared);
  });

  GePivotResult result;
  result.run = std::move(run);
  result.n = options.n;
  result.work_flops = numeric::ge_workload(static_cast<double>(options.n));
  result.charged_flops = shared->charged.total();
  result.row_swaps = shared->row_swaps;
  result.solution = std::move(shared->solution);
  result.residual = shared->residual;
  return result;
}

}  // namespace hetscale::algos
