// Scalability series over a ladder of system sizes (paper Tables 3–5).
//
// Given combinations of the same algorithm on successively larger systems
// and a target speed-efficiency, compute for each system the required
// problem size, and between consecutive systems the isospeed-efficiency
// scalability ψ — exactly how Tables 3/4 (GE) and 5 (MM) are built.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "hetscale/scal/combination.hpp"
#include "hetscale/scal/iso_solver.hpp"

namespace hetscale::scal {

/// One system's row of Table 3: the operating point at the target E_s.
struct OperatingPoint {
  std::string system;
  double marked_speed = 0.0;  ///< C (flop/s)
  std::int64_t n = -1;        ///< required problem size
  double work = 0.0;          ///< W(N)
  double achieved_es = 0.0;
  bool found = false;
};

/// One step of Table 4/5: ψ between consecutive systems.
struct ScalabilityStep {
  std::string from;
  std::string to;
  double psi = 0.0;
};

struct SeriesReport {
  double target_es = 0.0;
  std::vector<OperatingPoint> points;
  std::vector<ScalabilityStep> steps;  ///< points.size() - 1 entries

  /// Cumulative scalability from the first system to the last found one:
  /// the product of the step ψ values (== ψ(C_first, C_last)).
  double cumulative_psi() const;
};

/// Build the series. Combinations must be ordered by increasing system size.
/// Systems where the target cannot be reached get found == false and no
/// outgoing step.
///
/// The per-system iso-solves run as one batch on the runner — they are
/// independent simulations — and the report is assembled from the batch in
/// ladder order, so it is bit-identical at any jobs count. Each solve gets
/// the same runner: its speculative-bisection waves are nested batches on
/// the same pool, claimed by lanes whose own system is done, and the found
/// N and E_s stay those of plain bisection. At jobs >= 3 the waves probe
/// sizes plain bisection never visits, so a measurement store sees more
/// simulations; at jobs 1 everything runs inline, in ladder order.
SeriesReport scalability_series(std::span<Combination* const> combinations,
                                double target_es, run::Runner& runner,
                                const IsoSolveOptions& solve = {});

}  // namespace hetscale::scal
