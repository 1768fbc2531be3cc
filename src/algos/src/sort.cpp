#include "hetscale/algos/sort.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <span>
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

constexpr int kTagKeys = 400;
constexpr int kTagCollect = 401;
constexpr double kBytesPerKey = 8.0;

struct SortShared {
  std::int64_t n = 0;
  SortSplitters splitters = SortSplitters::kSpeedProportional;
  std::vector<double> speeds;
  std::vector<std::int64_t> counts;  ///< initial keys per rank
  std::vector<double> keys0;         ///< input at root
  std::vector<double> sorted;        ///< output at root
  std::vector<std::int64_t> bucket_counts;
  ChargeLedger charged;
};

/// 3 ops per key per log2(N) level — one sorting pass.
double sort_pass_flops(std::int64_t keys, std::int64_t n) {
  return 3.0 * static_cast<double>(keys) *
         std::log2(static_cast<double>(n));
}

Task<void> sort_rank(Comm& comm, SortShared& sh) {
  const int rank = comm.rank();
  const int p = comm.size();
  const std::int64_t n = sh.n;
  const auto my_count = sh.counts[static_cast<std::size_t>(rank)];

  co_await comm.bcast(kRoot, kMetadataBytes, {});

  // ---- Phase 1: distribute keys proportionally to marked speeds ----
  std::vector<double> local;
  if (rank == kRoot) {
    const auto offsets = dist::block_offsets(sh.counts);
    for (int dst = 0; dst < p; ++dst) {
      if (dst == kRoot) continue;
      const auto begin =
          static_cast<std::size_t>(offsets[static_cast<std::size_t>(dst)]);
      const auto end =
          static_cast<std::size_t>(offsets[static_cast<std::size_t>(dst) + 1]);
      Payload pack = Payload::copy_of(
          std::span<const double>(sh.keys0).subspan(begin, end - begin));
      co_await comm.send(
          dst, kTagKeys,
          kBytesPerKey *
              static_cast<double>(sh.counts[static_cast<std::size_t>(dst)]),
          std::move(pack));
    }
    local.assign(sh.keys0.begin(),
                 sh.keys0.begin() + offsets[1]);
  } else {
    auto message = co_await comm.recv(kRoot, kTagKeys);
    const auto keys = message.payload.doubles();
    local.assign(keys.begin(), keys.end());
  }

  // ---- Phase 2: local sort ----
  co_await sh.charged.charge(comm, sort_pass_flops(my_count, n));
  std::sort(local.begin(), local.end());

  // ---- Phase 3: regular sampling (with oversampling) and splitters ----
  // Each rank contributes s >> p-1 local quantiles so the combined sample
  // resolves *arbitrary* cut fractions — required for speed-proportional
  // splitters, whose cut points are not multiples of 1/p.
  std::vector<double> splitters;
  if (p > 1) {
    HETSCALE_CHECK(!local.empty(),
                   "sample sort needs every rank to own at least one key");
    const int oversample = std::max(32, 4 * (p - 1));
    Payload samples = Payload::buffer(static_cast<std::size_t>(oversample));
    auto sample_out = samples.doubles();
    for (int k = 1; k <= oversample; ++k) {
      const auto at = static_cast<std::size_t>(
          static_cast<double>(local.size()) * k / (oversample + 1));
      sample_out[static_cast<std::size_t>(k - 1)] =
          local[std::min(at, local.size() - 1)];
    }
    auto gathered = co_await comm.gather(
        kRoot, kBytesPerKey * static_cast<double>(oversample),
        std::move(samples));
    Payload splitters_payload;
    if (rank == kRoot) {
      std::vector<double> all;
      for (const auto& part : gathered) {
        const auto vec = part.doubles();
        all.insert(all.end(), vec.begin(), vec.end());
      }
      std::sort(all.begin(), all.end());
      splitters_payload = Payload::buffer(static_cast<std::size_t>(p - 1));
      auto chosen = splitters_payload.doubles();
      double cumulative = 0.0;
      double total_speed = 0.0;
      for (double c : sh.speeds) total_speed += c;
      for (int k = 1; k < p; ++k) {
        double fraction;
        if (sh.splitters == SortSplitters::kSpeedProportional) {
          cumulative += sh.speeds[static_cast<std::size_t>(k - 1)];
          fraction = cumulative / total_speed;
        } else {
          fraction = static_cast<double>(k) / p;
        }
        const auto at = static_cast<std::size_t>(
            fraction * static_cast<double>(all.size()));
        chosen[static_cast<std::size_t>(k - 1)] =
            all[std::min(at, all.size() - 1)];
      }
    }
    Payload splitters_bcast = co_await comm.bcast(
        kRoot, kBytesPerKey * static_cast<double>(p - 1),
        std::move(splitters_payload));
    const auto chosen = splitters_bcast.doubles();
    splitters.assign(chosen.begin(), chosen.end());
  }

  // ---- Phase 4: bucket partition + alltoall ----
  std::vector<double> received;
  if (p > 1) {
    std::vector<Payload> parts;
    std::vector<double> parts_bytes;
    auto cursor = local.begin();
    for (int d = 0; d < p; ++d) {
      auto until = d + 1 < p
                       ? std::upper_bound(cursor, local.end(),
                                          splitters[static_cast<std::size_t>(d)])
                       : local.end();
      const auto count = static_cast<std::size_t>(until - cursor);
      parts_bytes.push_back(kBytesPerKey * static_cast<double>(count));
      parts.push_back(Payload::copy_of(std::span<const double>(
          local.data() + (cursor - local.begin()), count)));
      cursor = until;
    }
    auto incoming = co_await comm.alltoall(parts_bytes, std::move(parts));
    for (const auto& part : incoming) {
      const auto vec = part.doubles();
      received.insert(received.end(), vec.begin(), vec.end());
    }
  } else {
    received = std::move(local);
  }
  sh.bucket_counts[static_cast<std::size_t>(rank)] =
      static_cast<std::int64_t>(received.size());

  // ---- Phase 5: final local sort of the bucket ----
  co_await sh.charged.charge(
      comm, sort_pass_flops(static_cast<std::int64_t>(received.size()), n));
  std::sort(received.begin(), received.end());

  // ---- Phase 6: gather — concatenation by rank is globally sorted ----
  const double bytes = kBytesPerKey * static_cast<double>(received.size());
  if (rank != kRoot) {
    Payload mine = Payload::copy_of(received);
    co_await comm.send(kRoot, kTagCollect, bytes, std::move(mine));
    co_return;
  }
  sh.sorted.reserve(static_cast<std::size_t>(n));
  sh.sorted.insert(sh.sorted.end(), received.begin(), received.end());
  for (int src = 1; src < p; ++src) {
    auto message = co_await comm.recv(src, kTagCollect);
    const auto vec = message.payload.doubles();
    sh.sorted.insert(sh.sorted.end(), vec.begin(), vec.end());
  }
}

}  // namespace

double sort_workload(std::int64_t n) {
  HETSCALE_REQUIRE(n >= 2, "sort workload needs n >= 2");
  return 6.0 * static_cast<double>(n) * std::log2(static_cast<double>(n));
}

std::int64_t sort_min_keys(int ranks) {
  return std::max<std::int64_t>(static_cast<std::int64_t>(ranks) * ranks, 2);
}

SortResult run_parallel_sort(vmpi::Machine& machine,
                             const SortOptions& options) {
  const int p = machine.world_size();
  HETSCALE_REQUIRE(options.n >= sort_min_keys(p),
                   "sample sort needs n >= p^2 keys");

  auto shared = std::make_shared<SortShared>();
  shared->charged.reset(p);
  shared->n = options.n;
  shared->splitters = options.splitters;
  shared->bucket_counts.assign(static_cast<std::size_t>(p), 0);

  shared->speeds = rank_speeds(machine, options.speeds);
  shared->counts = dist::het_block_counts(shared->speeds, options.n);

  Rng rng(options.seed);
  shared->keys0.resize(static_cast<std::size_t>(options.n));
  for (auto& key : shared->keys0) key = rng.uniform(0.0, 1.0);

  auto run = machine.run([shared](Comm& comm) -> Task<void> {
    return sort_rank(comm, *shared);
  });

  SortResult result;
  result.run = std::move(run);
  result.n = options.n;
  result.work_flops = sort_workload(options.n);
  result.charged_flops = shared->charged.total();
  result.sorted = std::move(shared->sorted);
  result.bucket_counts = std::move(shared->bucket_counts);
  return result;
}

}  // namespace hetscale::algos
