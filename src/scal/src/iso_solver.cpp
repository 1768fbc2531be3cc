#include "hetscale/scal/iso_solver.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "hetscale/numeric/roots.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/support/error.hpp"
#include "hetscale/support/log.hpp"

namespace hetscale::scal {

namespace {

/// Smallest n in [lo, hi] with E_s(n) >= target by *speculative* bisection:
/// each wave measures, as one batch, every midpoint the sequential
/// bisection could visit in its next d steps (the depth-d decision tree of
/// the bracket, 2^d - 1 probes with 2^d - 1 <= jobs, and d = 1 below three
/// jobs), then replays the d decisions on the cached measurements. The
/// trajectory — and therefore the returned n — is identical to
/// numeric::first_at_least on *any* E_s(n), including one with small
/// non-monotone wiggles; the wave only trades redundant concurrent
/// measurements for d levels of progress per sequential round trip.
///
/// Precondition (established by direct_search's doubling bracket): lo == hi,
/// or E_s(lo) < target <= E_s(hi). Both endpoints were measured while
/// bracketing, so the defensive entry probes of a general-purpose
/// first_at_least would only repeat cache lookups — the invariant is
/// asserted in debug builds instead of re-derived per call.
std::int64_t speculative_first_at_least(Combination& combination,
                                        double target, std::int64_t lo,
                                        std::int64_t hi,
                                        run::Runner& runner) {
  const auto es_at = [&](std::int64_t n) {
    return combination.measure(n).speed_efficiency;
  };
  HETSCALE_DCHECK(es_at(hi) >= target,
                  "speculative bisection needs E_s(hi) >= target");
  HETSCALE_DCHECK(lo == hi || es_at(lo) < target,
                  "speculative bisection needs E_s(lo) < target");
  int depth = 1;
  while (depth < 20 &&
         (std::int64_t{2} << depth) - 1 <= static_cast<std::int64_t>(
                                               runner.jobs())) {
    ++depth;
  }
  while (hi - lo > 1) {
    std::vector<std::int64_t> probes;
    std::vector<std::pair<std::int64_t, std::int64_t>> frontier{{lo, hi}};
    for (int level = 0; level < depth; ++level) {
      std::vector<std::pair<std::int64_t, std::int64_t>> next;
      for (const auto& [a, b] : frontier) {
        if (b - a <= 1) continue;
        const std::int64_t mid = a + (b - a) / 2;
        probes.push_back(mid);
        next.emplace_back(a, mid);
        next.emplace_back(mid, b);
      }
      frontier = std::move(next);
    }
    combination.measure_many(probes, runner);  // one wave
    // Replay bisection's decisions against the now-cached measurements.
    for (int level = 0; level < depth && hi - lo > 1; ++level) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      if (es_at(mid) >= target) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
  }
  return hi;
}

IsoSolveResult direct_search(Combination& combination, double target_es,
                             run::Runner& runner,
                             const IsoSolveOptions& options) {
  IsoSolveResult result;
  result.target_es = target_es;

  auto es_at = [&](std::int64_t n) {
    return combination.measure(n).speed_efficiency;
  };

  // Doubling bracket: find hi with E_s(hi) >= target. Kept sequential —
  // each doubling costs several times the previous one, so speculative
  // measurement past the crossing wastes more work than the overlap
  // recovers (see the header comment).
  std::int64_t lo = options.n_min;
  std::int64_t hi = lo;
  if (lo > options.n_max) return result;  // the floor is past the ceiling
  while (es_at(hi) < target_es) {
    if (hi >= options.n_max) return result;  // unreachable: not found
    lo = hi;
    hi = std::min(options.n_max, hi * 2);
  }
  const std::int64_t n = speculative_first_at_least(
      combination, target_es, std::min(lo, hi), hi, runner);
  result.found = true;
  result.n = n;
  result.achieved_es = es_at(n);
  return result;
}

IsoSolveResult trend_line(Combination& combination, double target_es,
                          run::Runner& runner,
                          const IsoSolveOptions& options) {
  HETSCALE_REQUIRE(options.trend_samples >= options.trend_degree + 1,
                   "need more trend samples than polynomial coefficients");
  HETSCALE_REQUIRE(options.trend_n_lo >= 1 &&
                       options.trend_n_hi > options.trend_n_lo,
                   "invalid trend sampling window");
  IsoSolveResult result;
  result.target_es = target_es;

  // Geometric ladder of sample sizes across the window.
  std::vector<std::int64_t> sizes;
  const double ratio =
      std::pow(static_cast<double>(options.trend_n_hi) /
                   static_cast<double>(options.trend_n_lo),
               1.0 / static_cast<double>(options.trend_samples - 1));
  double x = static_cast<double>(options.trend_n_lo);
  for (std::size_t i = 0; i < options.trend_samples; ++i) {
    const auto n = static_cast<std::int64_t>(std::llround(x));
    if (sizes.empty() || n > sizes.back()) sizes.push_back(n);
    x *= ratio;
  }
  const auto curve = sample_efficiency_curve(combination, sizes, runner);
  const auto trend = fit_trend(curve, options.trend_degree);

  // Read the crossing off the trend line, allowing mild extrapolation.
  const double lo = static_cast<double>(sizes.front());
  const double hi = static_cast<double>(sizes.back());
  double n_cross = -1.0;
  try {
    n_cross = numeric::bracket_and_bisect(
        [&](double n) { return trend(n) - target_es; }, lo, hi, 4.0 * hi);
  } catch (const NumericError&) {
    HETSCALE_WARN("trend line never crosses target E_s "
                  << target_es << " for " << combination.name());
    return result;  // not found
  }

  // The paper's verification step: measure at the read-off size.
  const auto n = static_cast<std::int64_t>(std::llround(n_cross));
  result.found = true;
  result.n = std::max(n, combination.min_n());
  result.achieved_es = combination.measure(result.n).speed_efficiency;
  return result;
}

}  // namespace

IsoSolveResult required_problem_size(Combination& combination,
                                     double target_es, run::Runner& runner,
                                     const IsoSolveOptions& options) {
  HETSCALE_REQUIRE(target_es > 0.0 && target_es < 1.0,
                   "target speed-efficiency must be in (0, 1)");
  HETSCALE_REQUIRE(options.n_min >= 1 && options.n_max > options.n_min,
                   "invalid search range");
  // Never probe below the smallest size the combination runs.
  IsoSolveOptions floored = options;
  floored.n_min = std::max(options.n_min, combination.min_n());
  floored.trend_n_lo = std::max(options.trend_n_lo, combination.min_n());
  if (options.method == IsoSolveOptions::Method::kDirectSearch) {
    return direct_search(combination, target_es, runner, floored);
  }
  return trend_line(combination, target_es, runner, floored);
}

}  // namespace hetscale::scal
