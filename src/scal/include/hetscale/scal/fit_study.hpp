// FitStudy — measured (combination, p, n) -> E_s datasets for model fitting.
//
// The model zoo (predict/zoo.hpp) fits rival scalability models to the same
// isospeed data the paper's tables are built from. This header is the data
// side of that study: it walks a ladder of combinations, measures each at a
// set of problem sizes through measure_many (so uncached points run
// concurrently on the Runner and everything is memoized through the
// MeasurementStore), and flattens the results into per-point rows carrying
// everything a model may condition on — processor count, marked speed, the
// root rank's speed, the workload, and a heterogeneity score of the
// rank-speed vector. Gathering is bit-identical across --jobs because
// measure_many is.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "hetscale/scal/combination.hpp"

namespace hetscale::scal {

/// One measured ladder point, flattened for model fitting. `p` and the
/// speed fields describe the system; `speed_efficiency` is the fit target.
struct FitPoint {
  std::string system;             ///< combination display name
  int p = 0;                      ///< processor count
  std::int64_t n = 0;             ///< problem size
  double work_flops = 0.0;        ///< W(N)
  double seconds = 0.0;           ///< measured T
  double speed_efficiency = 0.0;  ///< measured E_s (the fit target)
  double marked_speed = 0.0;      ///< C (flop/s)
  double root_speed = 0.0;        ///< rank 0's marked speed
  double het_score = 0.0;         ///< heterogeneity_score(rank_speeds)
};

/// A gathered dataset: every ladder rung measured at every size, in
/// ladder-major, size-minor order (deterministic).
struct FitDataset {
  std::string algo;  ///< display key, e.g. "ge"
  std::vector<FitPoint> points;

  /// Distinct processor counts, ascending.
  std::vector<int> processor_counts() const;

  /// Distinct problem sizes, ascending.
  std::vector<std::int64_t> sizes() const;
};

/// HEET-style heterogeneity score of a rank-speed vector:
///   h = 1 - (sum c_i) / (p * max c_i),
/// the fraction of the cluster's peak-uniform capacity lost to speed
/// spread. 0 for a homogeneous cluster, -> 1 as one rank dominates.
/// Empty or all-zero speeds score 0.
double heterogeneity_score(std::span<const double> rank_speeds);

/// Measure every ladder combination at every size and flatten the results.
/// Each rung's uncached sizes are simulated as one batch on the runner;
/// rungs are visited in order, so the dataset is bit-identical at any jobs
/// count. Measurements are memoized through the MeasurementStore exactly as
/// in measure()/measure_many.
FitDataset gather_fit_points(std::string algo,
                             std::span<ClusterCombination* const> ladder,
                             std::span<const std::int64_t> sizes,
                             run::Runner& runner);

}  // namespace hetscale::scal
