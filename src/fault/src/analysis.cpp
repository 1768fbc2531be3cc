#include "hetscale/fault/analysis.hpp"

#include <algorithm>
#include <vector>

#include "hetscale/support/error.hpp"

namespace hetscale::fault {
namespace {

// Integrate rank `rank`'s slowdown factor over [0, horizon) exactly: the
// factor is piecewise constant with breakpoints at the rank's event edges,
// so sum factor * piece_length over the pieces.
double integrate_factor(const FaultPlan& plan, int rank,
                        des::SimTime horizon) {
  std::vector<des::SimTime> edges;
  edges.push_back(0.0);
  edges.push_back(horizon);
  for (const SlowdownEvent& event : plan.slowdowns()) {
    if (event.rank != rank) continue;
    if (event.start < horizon) edges.push_back(std::max(event.start, 0.0));
    if (event.end < horizon) edges.push_back(std::max(event.end, 0.0));
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  double integral = 0.0;
  for (std::size_t i = 0; i + 1 < edges.size(); ++i) {
    const des::SimTime lo = edges[i];
    const des::SimTime hi = edges[i + 1];
    if (hi <= lo) continue;
    integral += plan.slowdown_factor(rank, lo) * (hi - lo);
  }
  return integral;
}

}  // namespace

double mean_effective_rank_speed(const FaultPlan& plan, int rank,
                                 double healthy_speed, des::SimTime horizon) {
  HETSCALE_REQUIRE(healthy_speed >= 0.0, "healthy speed must be >= 0");
  HETSCALE_REQUIRE(horizon > 0.0, "horizon must be > 0");
  return healthy_speed * integrate_factor(plan, rank, horizon) / horizon;
}

double mean_effective_marked_speed(const FaultPlan& plan,
                                   std::span<const double> healthy_speeds,
                                   des::SimTime horizon) {
  double total = 0.0;
  for (std::size_t rank = 0; rank < healthy_speeds.size(); ++rank) {
    total += mean_effective_rank_speed(plan, static_cast<int>(rank),
                                       healthy_speeds[rank], horizon);
  }
  return total;
}

}  // namespace hetscale::fault
