#include "hetscale/scal/series.hpp"

#include "hetscale/run/runner.hpp"
#include "hetscale/scal/metrics.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::scal {

double SeriesReport::cumulative_psi() const {
  double product = 1.0;
  for (const auto& step : steps) product *= step.psi;
  return product;
}

SeriesReport scalability_series(std::span<Combination* const> combinations,
                                double target_es, run::Runner& runner,
                                const IsoSolveOptions& solve) {
  HETSCALE_REQUIRE(combinations.size() >= 2,
                   "a scalability series needs at least two systems");
  SeriesReport report;
  report.target_es = target_es;

  for (Combination* combination : combinations) {
    HETSCALE_REQUIRE(combination != nullptr, "null combination");
  }

  // One iso-solve per system. Each solve only touches its own combination,
  // so the ladder is an independent batch; the report below is assembled
  // in ladder order. Each solve's own waves are nested batches on the same
  // pool, so lanes whose system is done help the slower ones.
  const auto solved = runner.map(combinations.size(), [&](std::size_t i) {
    return required_problem_size(*combinations[i], target_es, runner, solve);
  });

  for (std::size_t i = 0; i < combinations.size(); ++i) {
    Combination* combination = combinations[i];
    OperatingPoint point;
    point.system = combination->name();
    point.marked_speed = combination->marked_speed();
    point.found = solved[i].found;
    if (solved[i].found) {
      point.n = solved[i].n;
      point.work = combination->work(solved[i].n);
      point.achieved_es = solved[i].achieved_es;
    }
    report.points.push_back(std::move(point));
  }

  for (std::size_t i = 0; i + 1 < report.points.size(); ++i) {
    const auto& a = report.points[i];
    const auto& b = report.points[i + 1];
    ScalabilityStep step;
    step.from = a.system;
    step.to = b.system;
    if (a.found && b.found) {
      step.psi = isospeed_efficiency_scalability(a.marked_speed, a.work,
                                                 b.marked_speed, b.work);
    }
    report.steps.push_back(std::move(step));
  }
  return report;
}

}  // namespace hetscale::scal
