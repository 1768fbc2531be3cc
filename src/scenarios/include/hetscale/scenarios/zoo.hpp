// The model-zoo fit study as a scenario and a CLI building block.
//
// gather_zoo_dataset measures one algorithm's (combination, p, n) -> E_s
// points over the paper's ensembles (GE ensembles for ge/jacobi, MM
// ensembles for mm/spmv, ladder {2, 4, 8}); build_fit_report fits and
// cross-validates the predict/ model zoo on those points against the
// analytic Theorem-1 pipeline. The `model_zoo_ranking` scenario pins the
// resulting per-algorithm ranking as a golden artifact (timing-only,
// jobs-invariant, memoized through the MeasurementStore).
#pragma once

#include <vector>

#include "hetscale/predict/fit_report.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/scal/fit_study.hpp"
#include "hetscale/scenarios/algo_registry.hpp"

namespace hetscale::scenarios {

/// Measure the fit dataset of one of zoo_algos(): its fit_sizes on each
/// rung, each rung one batch on the runner (an entry without a model has
/// none, and throws PreconditionError). Same points, same bytes at any
/// jobs count.
scal::FitDataset gather_zoo_dataset(const AlgoEntry& entry,
                                    run::Runner& runner);

/// Gather + fit + rank for each requested algorithm, in the given order;
/// each is scored against its entry's analytic model.
predict::FitStudyReport build_fit_report(
    const std::vector<const AlgoEntry*>& algos, run::Runner& runner);

/// Register the `model_zoo_ranking` scenario. Idempotent.
void register_zoo_scenarios();

}  // namespace hetscale::scenarios
