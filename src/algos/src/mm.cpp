#include "hetscale/algos/mm.hpp"

#include <algorithm>
#include <memory>
#include <tuple>
#include <utility>

#include "charge_ledger.hpp"
#include "hetscale/algos/protocol.hpp"
#include "hetscale/dist/distribution.hpp"
#include "hetscale/kernels/flops.hpp"
#include "hetscale/numeric/linsolve.hpp"
#include "hetscale/numeric/matmul.hpp"
#include "hetscale/support/error.hpp"
#include "hetscale/vmpi/payload.hpp"
#include "setup.hpp"

namespace hetscale::algos {

namespace {

using des::Task;
using vmpi::Comm;
using vmpi::Payload;

constexpr int kTagARows = 200;
constexpr int kTagCollect = 201;

struct MmShared {
  std::int64_t n = 0;
  bool with_data = true;
  std::vector<std::int64_t> counts;   ///< rows of A per rank
  std::vector<std::int64_t> offsets;  ///< first row per rank
  numeric::Matrix a;  ///< root's inputs
  numeric::Matrix b;
  numeric::Matrix c;  ///< gathered result at root
  ChargeLedger charged;
};

Task<void> mm_rank(Comm& comm, MmShared& sh) {
  const int rank = comm.rank();
  const int p = comm.size();
  const std::int64_t n = sh.n;
  const auto nn = static_cast<std::size_t>(n);
  const auto my_count = sh.counts[static_cast<std::size_t>(rank)];
  const auto my_offset = sh.offsets[static_cast<std::size_t>(rank)];
  const double row_bytes = static_cast<double>(n) * 8.0;

  co_await comm.bcast(kRoot, kMetadataBytes, {});

  // ---- Step 1: distribute A's rows (heterogeneous block) ----
  // Row-major blocks of A are contiguous in the root's storage, so each
  // rank's slice ships as one pooled buffer without a staging Matrix.
  Payload my_a;  // my block of A (non-root, with_data)
  if (rank == kRoot) {
    for (int dst = 0; dst < p; ++dst) {
      if (dst == kRoot) continue;
      const auto count = sh.counts[static_cast<std::size_t>(dst)];
      Payload payload;
      if (sh.with_data) {
        const auto begin = static_cast<std::size_t>(
            sh.offsets[static_cast<std::size_t>(dst)]);
        payload = Payload::copy_of(sh.a.data().subspan(
            begin * nn, static_cast<std::size_t>(count) * nn));
      }
      co_await comm.send(dst, kTagARows,
                         row_bytes * static_cast<double>(count),
                         std::move(payload));
    }
  } else {
    auto message = co_await comm.recv(kRoot, kTagARows);
    if (sh.with_data) my_a = std::move(message.payload);
  }

  // ---- Step 2: distribute B (full matrix to every rank) ----
  // Payload hoisted into a named local (see ge.cpp for the GCC coroutine
  // temporary-lifetime pitfall this avoids).
  Payload b_payload;
  if (rank == kRoot && sh.with_data) {
    b_payload = Payload::copy_of(sh.b.data());
  }
  Payload b_bcast = co_await comm.bcast(
      kRoot, row_bytes * static_cast<double>(n), std::move(b_payload));
  std::span<const double> my_b;
  if (sh.with_data) {
    my_b = rank == kRoot ? std::span<const double>(sh.b.data())
                         : std::span<const double>(b_bcast.doubles());
  }

  // ---- Step 3: local computation, no communication ----
  // multiply_rows_into is the blocked, panel-packed product over the
  // dispatched SIMD tile kernel; it multiplies straight out of the pooled
  // payload buffers and its output is bit-identical across kernel paths.
  co_await sh.charged.charge(comm, kernels::mm_rows_flops(n, my_count));
  Payload my_c;
  if (sh.with_data && my_count > 0) {
    my_c = Payload::buffer(static_cast<std::size_t>(my_count) * nn);
    if (rank == kRoot) {
      numeric::multiply_rows_into(
          sh.a.data(), nn, static_cast<std::size_t>(my_offset),
          static_cast<std::size_t>(my_offset + my_count), my_b, nn,
          my_c.doubles());
    } else {
      numeric::multiply_rows_into(my_a.doubles(), nn, 0,
                                  static_cast<std::size_t>(my_count), my_b,
                                  nn, my_c.doubles());
    }
  }

  // ---- Step 4: collect C at process 0 ----
  if (rank != kRoot) {
    co_await comm.send(kRoot, kTagCollect,
                       row_bytes * static_cast<double>(my_count),
                       std::move(my_c));
    co_return;
  }

  if (sh.with_data) {
    sh.c = numeric::Matrix(nn, nn);
    if (my_count > 0) {
      const auto mine = my_c.doubles();
      std::copy(mine.begin(), mine.end(),
                sh.c.data().begin() +
                    static_cast<std::size_t>(my_offset) * nn);
    }
  }
  for (int src = 0; src < p; ++src) {
    if (src == kRoot) continue;
    auto message = co_await comm.recv(src, kTagCollect);
    if (sh.with_data) {
      const auto block = message.payload.doubles();
      const auto begin =
          static_cast<std::size_t>(sh.offsets[static_cast<std::size_t>(src)]);
      std::copy(block.begin(), block.end(),
                sh.c.data().begin() + begin * nn);
    }
  }
}

}  // namespace

MmResult run_parallel_mm(vmpi::Machine& machine, const MmOptions& options) {
  HETSCALE_REQUIRE(options.n >= 1, "MM needs n >= 1");
  const int p = machine.world_size();

  auto shared = std::make_shared<MmShared>();
  shared->charged.reset(p);
  shared->n = options.n;
  shared->with_data = options.with_data;

  const auto speeds = rank_speeds(machine, options.speeds);
  shared->counts =
      options.distribution == MmDistribution::kHeterogeneousBlock
          ? dist::het_block_counts(speeds, options.n)
          : dist::block_counts(p, options.n);
  {
    auto offsets = dist::block_offsets(shared->counts);
    offsets.pop_back();
    shared->offsets = std::move(offsets);
  }

  if (options.with_data) {
    std::tie(shared->a, shared->b) = mm_inputs(options.n, options.seed);
  }

  auto run = machine.run([shared](Comm& comm) -> Task<void> {
    return mm_rank(comm, *shared);
  });

  MmResult result;
  result.run = std::move(run);
  result.n = options.n;
  result.work_flops = numeric::mm_workload(static_cast<double>(options.n));
  result.charged_flops = shared->charged.total();
  result.a = std::move(shared->a);
  result.b = std::move(shared->b);
  result.c = std::move(shared->c);
  return result;
}

}  // namespace hetscale::algos
