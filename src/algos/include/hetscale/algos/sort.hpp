// Parallel sample sort — a fourth algorithm-machine combination, with a
// genuinely different shape from GE/MM/Jacobi: sub-cubic work
// W(N) = 6·N·log2(N), personalized all-to-all communication, and a
// *data-dependent* load balance.
//
// Pipeline (classic sample sort, heterogeneity-aware):
//   1. Process 0 distributes keys proportionally to marked speeds.
//   2. Local sort (charged 3·n_i·log2 N per rank).
//   3. Regular sampling: each rank contributes p-1 samples; process 0
//      selects p-1 global splitters and broadcasts them.
//   4. Bucket partition + alltoall exchange.
//   5. Local sort of the received bucket (charged 3·m_i·log2 N).
//   6. Gather to process 0 — concatenation is globally sorted.
//
// The splitter policy is the heterogeneity lever: uniform splitters give
// every rank ~N/p keys in phase 5 (wrong on a heterogeneous machine);
// speed-proportional splitters cut the sample at cumulative-marked-speed
// positions so the fast ranks receive proportionally more keys.
//
// Unlike GE/MM, sorting is cheap enough to always run on real data — the
// bucket sizes (and hence the timing) are data-dependent by nature.
#pragma once

#include <cstdint>
#include <vector>

#include "hetscale/vmpi/machine.hpp"

namespace hetscale::algos {

enum class SortSplitters {
  kUniform,            ///< equal buckets (homogeneous assumption)
  kSpeedProportional,  ///< buckets ∝ marked speed (heterogeneity-aware)
};

struct SortOptions {
  std::int64_t n = 0;  ///< number of keys (required, >= 2)
  std::uint64_t seed = 45;
  SortSplitters splitters = SortSplitters::kSpeedProportional;
  std::vector<double> speeds;  ///< per-rank marked speeds; empty = measure
};

struct SortResult {
  vmpi::RunResult run;
  std::int64_t n = 0;
  double work_flops = 0.0;     ///< W(N) = 6 N log2 N
  double charged_flops = 0.0;  ///< == work (tested)
  std::vector<double> sorted;  ///< the globally sorted keys (at process 0)
  /// Keys each rank ended up sorting in phase 5 (load-balance diagnostics).
  std::vector<std::int64_t> bucket_counts;
};

/// W(N) = 6 N log2 N — the comparison-sort workload polynomial.
double sort_workload(std::int64_t n);

/// The fewest keys sample sort takes on `ranks` ranks: max(p^2, 2), so
/// every rank holds at least p keys to draw its p - 1 regular samples from.
std::int64_t sort_min_keys(int ranks);

/// Run parallel sample sort on (and consuming) the given machine. Needs
/// options.n >= sort_min_keys(world size).
SortResult run_parallel_sort(vmpi::Machine& machine,
                             const SortOptions& options);

}  // namespace hetscale::algos
