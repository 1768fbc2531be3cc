#include "hetscale/dist/distribution.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "hetscale/support/error.hpp"

namespace hetscale::dist {

namespace {
double total_speed(std::span<const double> speeds) {
  HETSCALE_REQUIRE(!speeds.empty(), "need at least one processor");
  double total = 0.0;
  for (double s : speeds) {
    HETSCALE_REQUIRE(s > 0.0, "processor speeds must be positive");
    total += s;
  }
  return total;
}
}  // namespace

std::vector<std::int64_t> het_block_counts(std::span<const double> speeds,
                                           std::int64_t n) {
  HETSCALE_REQUIRE(n >= 0, "item count must be non-negative");
  const double c = total_speed(speeds);
  const std::size_t p = speeds.size();

  std::vector<std::int64_t> counts(p, 0);
  std::vector<std::pair<double, std::size_t>> remainders(p);
  std::int64_t assigned = 0;
  for (std::size_t i = 0; i < p; ++i) {
    const double ideal = static_cast<double>(n) * speeds[i] / c;
    counts[i] = static_cast<std::int64_t>(std::floor(ideal));
    assigned += counts[i];
    remainders[i] = {ideal - std::floor(ideal), i};
  }
  // Largest remainder first; ties to the lower rank for determinism.
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) {
                     if (a.first != b.first) return a.first > b.first;
                     return a.second < b.second;
                   });
  for (std::int64_t leftover = n - assigned; leftover > 0; --leftover) {
    ++counts[remainders[static_cast<std::size_t>(n - assigned - leftover)]
                 .second];
  }
  return counts;
}

std::vector<std::int64_t> block_offsets(
    std::span<const std::int64_t> counts) {
  std::vector<std::int64_t> offsets(counts.size() + 1, 0);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    HETSCALE_REQUIRE(counts[i] >= 0, "counts must be non-negative");
    offsets[i + 1] = offsets[i] + counts[i];
  }
  return offsets;
}

std::vector<int> het_cyclic_owners(std::span<const double> speeds,
                                   std::int64_t n) {
  HETSCALE_REQUIRE(n >= 0, "item count must be non-negative");
  total_speed(speeds);  // validates
  const std::size_t p = speeds.size();

  // Deal each item to the processor whose (assigned + 1) / speed is
  // smallest — i.e. the one that stays furthest below its proportional
  // share. Ties go to the lower rank.
  std::vector<int> owners(static_cast<std::size_t>(n), 0);
  std::vector<std::int64_t> assigned(p, 0);
  for (std::int64_t j = 0; j < n; ++j) {
    std::size_t best = 0;
    double best_key = (static_cast<double>(assigned[0]) + 1.0) / speeds[0];
    for (std::size_t i = 1; i < p; ++i) {
      const double key = (static_cast<double>(assigned[i]) + 1.0) / speeds[i];
      if (key < best_key) {
        best = i;
        best_key = key;
      }
    }
    owners[static_cast<std::size_t>(j)] = static_cast<int>(best);
    ++assigned[best];
  }
  return owners;
}

std::vector<std::int64_t> block_counts(int p, std::int64_t n) {
  HETSCALE_REQUIRE(p >= 1, "need at least one processor");
  std::vector<double> speeds(static_cast<std::size_t>(p), 1.0);
  return het_block_counts(speeds, n);
}

double imbalance(std::span<const double> speeds,
                 std::span<const std::int64_t> counts) {
  HETSCALE_REQUIRE(speeds.size() == counts.size(),
                   "speeds/counts length mismatch");
  const double c = total_speed(speeds);
  std::int64_t n = 0;
  for (auto k : counts) n += k;
  if (n == 0) return 1.0;
  double worst = 0.0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    worst = std::max(worst, static_cast<double>(counts[i]) / speeds[i]);
  }
  return worst * c / static_cast<double>(n);
}

}  // namespace hetscale::dist
