#include "hetscale/scal/capacity.hpp"

#include <algorithm>

#include "hetscale/support/error.hpp"

namespace hetscale::scal {

namespace {
constexpr double kBytesPerDouble = 8.0;

double dense_matrix_bytes(std::int64_t n) {
  return kBytesPerDouble * static_cast<double>(n) * static_cast<double>(n);
}
}  // namespace

FootprintFn ge_footprint() {
  return [](std::int64_t n, int rank, int p) {
    const double share =
        dense_matrix_bytes(n) / static_cast<double>(p) + 2.0 * 8.0 * n;
    if (rank == 0) {
      // Original A + b (kept for the residual), the collected U + y, and
      // the root's own working rows.
      return 2.0 * dense_matrix_bytes(n) + 4.0 * 8.0 * n + share;
    }
    return share;
  };
}

std::int64_t max_feasible_size(const machine::Cluster& cluster,
                               const FootprintFn& footprint,
                               double usable_fraction, std::int64_t n_hi) {
  HETSCALE_REQUIRE(usable_fraction > 0.0 && usable_fraction <= 1.0,
                   "usable fraction must be in (0, 1]");
  HETSCALE_REQUIRE(footprint != nullptr, "footprint function required");
  const auto processors = cluster.processors();
  const int p = static_cast<int>(processors.size());
  HETSCALE_REQUIRE(p >= 1, "cluster has no participating processors");

  auto fits = [&](std::int64_t n) {
    for (int rank = 0; rank < p; ++rank) {
      const auto& node =
          cluster.nodes()[static_cast<std::size_t>(processors[rank].node)];
      // A node's memory is shared by its participating CPUs.
      const double budget = usable_fraction * node.spec.memory_bytes /
                            static_cast<double>(node.cpus_used);
      if (footprint(n, rank, p) > budget) return false;
    }
    return true;
  };

  if (!fits(1)) return 0;
  // Largest feasible n: galloping upper bound, then binary search.
  std::int64_t lo = 1;
  std::int64_t hi = 2;
  while (hi <= n_hi && fits(hi)) {
    lo = hi;
    hi *= 2;
  }
  hi = std::min(hi, n_hi);
  // Invariant: fits(lo), and (hi > n_hi originally or !fits(hi)).
  while (hi - lo > 1) {
    const std::int64_t mid = lo + (hi - lo) / 2;
    if (fits(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  if (lo < n_hi && fits(n_hi)) return n_hi;
  return lo;
}

BoundedSolveResult memory_bounded_required_size(
    ClusterCombination& combination, double target_es,
    const FootprintFn& footprint, run::Runner& runner,
    IsoSolveOptions options) {
  BoundedSolveResult result;
  result.n_limit =
      max_feasible_size(combination.cluster(), footprint,
                        /*usable_fraction=*/0.8, options.n_max);
  if (result.n_limit < options.n_min) {
    result.memory_bound = true;
    result.solve.target_es = target_es;
    return result;
  }
  options.n_max = std::max(options.n_min + 1, result.n_limit);
  result.solve =
      required_problem_size(combination, target_es, runner, options);
  result.memory_bound = !result.solve.found;
  return result;
}

}  // namespace hetscale::scal
