#include "hetscale/scal/fit_study.hpp"

#include <algorithm>
#include <utility>

#include "hetscale/support/error.hpp"

namespace hetscale::scal {

std::vector<int> FitDataset::processor_counts() const {
  std::vector<int> ps;
  for (const auto& point : points) ps.push_back(point.p);
  std::sort(ps.begin(), ps.end());
  ps.erase(std::unique(ps.begin(), ps.end()), ps.end());
  return ps;
}

std::vector<std::int64_t> FitDataset::sizes() const {
  std::vector<std::int64_t> ns;
  for (const auto& point : points) ns.push_back(point.n);
  std::sort(ns.begin(), ns.end());
  ns.erase(std::unique(ns.begin(), ns.end()), ns.end());
  return ns;
}

double heterogeneity_score(std::span<const double> rank_speeds) {
  if (rank_speeds.empty()) return 0.0;
  double sum = 0.0;
  double max = 0.0;
  for (const double c : rank_speeds) {
    sum += c;
    max = std::max(max, c);
  }
  if (max <= 0.0) return 0.0;
  return 1.0 - sum / (static_cast<double>(rank_speeds.size()) * max);
}

FitDataset gather_fit_points(std::string algo,
                             std::span<ClusterCombination* const> ladder,
                             std::span<const std::int64_t> sizes,
                             run::Runner& runner) {
  HETSCALE_REQUIRE(!ladder.empty(), "fit study needs at least one rung");
  HETSCALE_REQUIRE(!sizes.empty(), "fit study needs at least one size");
  FitDataset data;
  data.algo = std::move(algo);
  data.points.reserve(ladder.size() * sizes.size());
  for (ClusterCombination* combination : ladder) {
    HETSCALE_REQUIRE(combination != nullptr, "null combination in ladder");
    const auto measured = combination->measure_many(sizes, runner);
    const auto& speeds = combination->rank_speeds();
    const double het = heterogeneity_score(speeds);
    for (const auto& m : measured) {
      FitPoint point;
      point.system = combination->name();
      point.p = combination->processor_count();
      point.n = m.n;
      point.work_flops = m.work_flops;
      point.seconds = m.seconds;
      point.speed_efficiency = m.speed_efficiency;
      point.marked_speed = combination->marked_speed();
      point.root_speed = speeds.front();
      point.het_score = het;
      data.points.push_back(std::move(point));
    }
  }
  return data;
}

}  // namespace hetscale::scal
