#include "hetscale/algos/ge.hpp"

#include <array>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "ge_rows.hpp"
#include "hetscale/kernels/blas1.hpp"
#include "hetscale/kernels/flops.hpp"
#include "hetscale/numeric/linsolve.hpp"
#include "hetscale/support/error.hpp"
#include "hetscale/vmpi/payload.hpp"

namespace hetscale::algos {

namespace {

using des::Task;
using vmpi::Comm;
using vmpi::Payload;

/// Pipelined variant: pivot of step i travels with tag kTagPivotBase + i.
constexpr int kTagPivotBase = 2000;
/// Paper variant with data: pivots applied per block of this many steps.
constexpr std::size_t kDefer = 8;

/// Normalize local row `local` as pivot row `i` (with_data) and return the
/// broadcast buffer: the trailing columns [i, n) with the rhs folded in as
/// the final element — n - i + 1 doubles. Folding the rhs in keeps the pivot
/// a single pooled buffer end to end; the per-element arithmetic of the
/// elimination is unchanged because the rhs update is the same subtract as
/// any trailing column.
Payload normalize_pivot(const GeRowFrame& sh, GeRowBlock& mine,
                        std::int64_t i, std::size_t local) {
  Payload pivot;
  if (sh.with_data) {
    double* row = sh.local_row(mine, local);
    const double diag = row[static_cast<std::size_t>(i)];
    HETSCALE_CHECK(diag != 0.0, "zero pivot in pivot-free parallel GE");
    const double inv = 1.0 / diag;
    // Normalize columns [i, n) and the in-row rhs at column n.
    for (std::int64_t c = i; c <= sh.n; ++c) {
      row[static_cast<std::size_t>(c)] *= inv;
    }
    pivot = Payload::copy_of(std::span<const double>(
        row + i, static_cast<std::size_t>(sh.n - i + 1)));
  }
  return pivot;
}

/// Apply `pivots` — the normalized pivot buffers of steps lead, lead + 1,
/// ... (trailing columns + folded rhs) — in order to owned local rows
/// [first, last), through the block elimination kernel: a row whose factor
/// for a pivot is zero skips that pivot, exactly as kernels::eliminate_row
/// does, and the runtime-dispatched SIMD tile (kernels/dispatch.hpp) keeps
/// the results bit-identical to applying each pivot at its own step.
/// `targets` is the caller's scratch for the rows handed to the kernel.
void apply_pivots(const GeRowFrame& sh, GeRowBlock& mine,
                  std::vector<double*>& targets, std::int64_t lead,
                  std::span<const Payload> pivots, std::size_t first,
                  std::size_t last) {
  if (!sh.with_data || pivots.empty() || first >= last) return;
  HETSCALE_CHECK(pivots.size() <= kDefer, "too many pivots for one block");
  std::array<const double*, kDefer> heads{};
  for (std::size_t j = 0; j < pivots.size(); ++j) {
    heads[j] = pivots[j].doubles().data();
  }
  targets.clear();
  for (std::size_t k = first; k < last; ++k) {
    targets.push_back(sh.local_row(mine, k) + lead);
  }
  kernels::eliminate_block({heads.data(), pivots.size()}, targets,
                           static_cast<std::size_t>(sh.n + 1 - lead));
}

/// Stage 1, as the paper specifies it: per step, two broadcasts (pivot row
/// + rhs) and a barrier.
///
/// With data, each rank defers its elimination updates on the host: it
/// keeps the pivots it received but has not applied (Payload references,
/// no copies) and applies them in blocks of kDefer. Before the owner of row
/// i normalizes it, that row takes every pending pivot (owner flush); every
/// kDefer steps every remaining row takes them all in one pass (block
/// flush), so each row streams through memory once per block instead of
/// once per step. A row already normalized as a pivot was finished at its
/// own step. The result is bit-identical to eliminating at every step:
/// each element still takes the same multiplies and subtracts in the same
/// pivot order, and a row's factor for pivot j is its column j after
/// pivots < j, as before (kernels::eliminate_block). Virtual time is
/// charged per step exactly as before; only host memory traffic changes.
Task<void> ge_eliminate_paper(Comm& comm, GeRowFrame& sh) {
  const int rank = comm.rank();
  const std::int64_t n = sh.n;
  GeRowBlock& mine = sh.block_of(comm);
  std::size_t next = 0;  // first local index with global row >= step i
  std::vector<double*> targets;

  // with_data: pivots of steps i - pending.size() .. i - 1, not yet applied
  // to the rows below them.
  std::vector<Payload> pending;
  if (sh.with_data) pending.reserve(kDefer);

  for (std::int64_t i = 0; i < n; ++i) {
    const int owner = sh.owners[static_cast<std::size_t>(i)];
    while (next < mine.rows.size() && mine.rows[next] < i) ++next;
    const std::int64_t trailing = n - i;

    Payload pivot;
    if (rank == owner) {
      co_await sh.charged.charge(comm, kernels::ge_normalize_flops(n, i));
      HETSCALE_CHECK(!sh.with_data ||
                         (next < mine.rows.size() && mine.rows[next] == i),
                     "owner does not hold the pivot row");
      const auto held = static_cast<std::int64_t>(pending.size());
      apply_pivots(sh, mine, targets, i - held, pending, next, next + 1);
      pivot = normalize_pivot(sh, mine, i, next);
    }

    // Two broadcasts per step, as in the paper's model N(2 T_bcast + T_bar).
    // The modeled byte counts are unchanged (trailing row, then rhs); the
    // actual pivot buffer rides the first broadcast with the rhs folded in,
    // which costs nothing — virtual time depends only on the modeled bytes.
    // Payloads are built in named locals — GCC's coroutine lowering
    // double-destroys temporaries materialized in conditional operators
    // inside co_await expressions.
    Payload row_payload;
    Payload rhs_payload;
    if (rank == owner) {
      row_payload = pivot;  // refcount bump, not a data copy
      if (sh.with_data) rhs_payload = Payload(pivot.doubles().back());
    }
    Payload row_bcast = co_await comm.bcast(
        owner, static_cast<double>(trailing) * 8.0, std::move(row_payload));
    Payload rhs_bcast =
        co_await comm.bcast(owner, 8.0, std::move(rhs_payload));
    (void)rhs_bcast;  // the rhs already arrived folded into the row buffer
    if (sh.with_data && rank != owner) pivot = std::move(row_bcast);
    if (sh.with_data) pending.push_back(std::move(pivot));

    std::size_t first = next;
    if (first < mine.rows.size() && mine.rows[first] == i) ++first;
    const auto count = mine.rows.size() - first;
    if (count > 0) {
      co_await sh.charged.charge(
          comm, static_cast<double>(count) *
                    kernels::ge_eliminate_row_flops(n, i));
    }
    if (pending.size() == kDefer) {
      apply_pivots(sh, mine, targets,
                   i + 1 - static_cast<std::int64_t>(kDefer), pending, first,
                   mine.rows.size());
      pending.clear();
    }
    co_await comm.barrier();
  }
}

/// Stage 1, pipelined (lookahead-1): the owner of row i+1 eliminates it
/// first and fires the next pivot with isend, overlapping the distribution
/// with everyone's remaining step-i eliminations. One message per pivot,
/// no barriers; arithmetic identical per row, only the schedule differs.
Task<void> ge_eliminate_pipelined(Comm& comm, GeRowFrame& sh) {
  const int rank = comm.rank();
  const int p = comm.size();
  const std::int64_t n = sh.n;
  GeRowBlock& mine = sh.block_of(comm);
  std::size_t next = 0;  // first local index with global row >= step i
  std::vector<double*> targets;

  auto pivot_bytes = [&](std::int64_t i) {
    return static_cast<double>(n - i + 1) * 8.0;  // trailing row + rhs
  };

  auto send_pivot = [&](std::int64_t i, const Payload& pivot) {
    const int tag = kTagPivotBase + static_cast<int>(i);
    for (int dst = 0; dst < p; ++dst) {
      if (dst == rank) continue;
      // Copying a Payload only bumps the buffer refcount — every receiver
      // reads the same pooled block.
      comm.isend(dst, tag, pivot_bytes(i), pivot);
    }
  };

  // Bootstrap: the owner of row 0 prepares and fires pivot 0.
  Payload held_pivot;  // the pivot this rank owns for the *next* step
  if (rank == sh.owners[0]) {
    co_await sh.charged.charge(comm, kernels::ge_normalize_flops(n, 0));
    held_pivot = normalize_pivot(sh, mine, 0, 0);
    send_pivot(0, held_pivot);
  }

  for (std::int64_t i = 0; i < n; ++i) {
    const int owner = sh.owners[static_cast<std::size_t>(i)];
    while (next < mine.rows.size() && mine.rows[next] < i) ++next;

    Payload pivot;
    if (rank == owner) {
      pivot = std::move(held_pivot);
    } else {
      auto message =
          co_await comm.recv(owner, kTagPivotBase + static_cast<int>(i));
      if (sh.with_data) pivot = std::move(message.payload);
    }

    std::size_t first = next;
    if (first < mine.rows.size() && mine.rows[first] == i) ++first;

    // Lookahead: if this rank owns row i+1, update it first and fire the
    // next pivot before touching the rest of the block.
    std::size_t remaining_first = first;
    if (i + 1 < n &&
        rank == sh.owners[static_cast<std::size_t>(i + 1)]) {
      HETSCALE_CHECK(!sh.with_data ||
                         (first < mine.rows.size() &&
                          mine.rows[first] == i + 1),
                     "lookahead owner does not hold row i+1");
      co_await sh.charged.charge(comm, kernels::ge_eliminate_row_flops(n, i));
      apply_pivots(sh, mine, targets, i, {&pivot, 1}, first,
                   mine.rows.size());
      // apply_pivots updated [first, end); re-do bookkeeping: we only
      // wanted row i+1 now, so do it precisely instead:
      remaining_first = first + 1;
      co_await sh.charged.charge(comm, kernels::ge_normalize_flops(n, i + 1));
      held_pivot = normalize_pivot(sh, mine, i + 1, first);
      send_pivot(i + 1, held_pivot);
    }

    const auto count = mine.rows.size() - remaining_first;
    if (count > 0) {
      co_await sh.charged.charge(
          comm, static_cast<double>(count) *
                    kernels::ge_eliminate_row_flops(n, i));
      if (remaining_first == first) {
        apply_pivots(sh, mine, targets, i, {&pivot, 1}, first,
                     mine.rows.size());
      }
      // (when the lookahead ran, apply_pivots above already covered the
      // whole [first, end) range with identical arithmetic)
    }
  }
}

Task<void> ge_rank(Comm& comm, GeRowFrame& sh, bool pipelined) {
  co_await ge_distribute(comm, sh);
  if (pipelined) {
    co_await ge_eliminate_pipelined(comm, sh);
  } else {
    co_await ge_eliminate_paper(comm, sh);
  }
  co_await ge_collect(comm, sh);
}

}  // namespace

GeResult run_parallel_ge(vmpi::Machine& machine, const GeOptions& options) {
  HETSCALE_REQUIRE(options.n >= 1, "GE needs n >= 1");
  auto shared = std::make_shared<GeRowFrame>(machine, options.n,
                                             options.with_data, options.speeds);
  if (options.with_data) shared->generate_system(options.seed);

  const bool pipelined = options.pipelined;
  auto run = machine.run([shared, pipelined](Comm& comm) -> Task<void> {
    return ge_rank(comm, *shared, pipelined);
  });

  GeResult result;
  result.run = std::move(run);
  result.n = options.n;
  result.work_flops = numeric::ge_workload(static_cast<double>(options.n));
  result.charged_flops = shared->charged.total();
  result.solution = std::move(shared->solution);
  result.residual = shared->residual;
  return result;
}

}  // namespace hetscale::algos
