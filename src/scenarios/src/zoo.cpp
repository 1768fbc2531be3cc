#include "hetscale/scenarios/zoo.hpp"

#include <memory>
#include <sstream>
#include <utility>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/predict/probe.hpp"
#include "hetscale/run/scenario.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/table.hpp"

namespace hetscale::scenarios {

namespace {

using run::RunContext;
using run::RunResult;
using run::Value;

/// The fit ladders stop at 8 nodes: three rungs x five sizes already
/// separate the models, and the 16/32-node rungs only add measurement
/// cost to a golden artifact.
const std::vector<int> kZooLadder{2, 4, 8};

/// The algorithm's registry entry (its spec and analytic model share their
/// parameters) on its ensemble ladder.
std::unique_ptr<scal::ClusterCombination> make_zoo_combination(
    const AlgoEntry& entry, int nodes) {
  scal::ClusterCombination::Config config;
  config.cluster = entry.ensemble(nodes);
  config.with_data = false;
  return std::make_unique<scal::ClusterCombination>(
      std::to_string(nodes) + " Nodes, zoo-" + entry.name, std::move(config),
      entry.spec);
}

RunResult model_zoo_ranking(const RunContext& context) {
  RunResult result;
  result.scenario = "model_zoo_ranking";
  result.title = "Model zoo  Cross-validated ranking vs the analytic model";
  std::ostringstream os;
  os << artifact_header(
      result.title,
      "Four fittable scalability models (USL, granularity, BSF, HEET) "
      "fitted to measured (p, N) -> E_s points per algorithm with the "
      "deterministic LM solver, scored leave-one-point-out, and ranked "
      "against the unfitted analytic Theorem-1 prediction.");

  const auto report = build_fit_report(zoo_algos(), context.runner);

  result.columns = {"algo",     "model",         "rank",
                    "cv_rmse",  "fit_rmse",      "beats_analytic"};
  Table table("Ranking by held-out E_s RMSE (LOO cross-validation)");
  table.set_header({"Algo", "Model", "Rank", "CV RMSE", "Fit RMSE",
                    "Analytic RMSE", "Beats analytic"});
  for (const auto& study : report.algos) {
    for (const auto& row : study.models) {
      table.add_row({study.algo, row.model, std::to_string(row.rank),
                     Table::fixed(row.cv.rmse, 5),
                     Table::fixed(row.fit_rmse, 5),
                     Table::fixed(study.analytic_rmse, 5),
                     row.beats_analytic ? "yes" : "no"});
      result.add_row({Value(study.algo), Value(row.model), Value(row.rank),
                      Value::fixed(row.cv.rmse, 5),
                      Value::fixed(row.fit_rmse, 5),
                      Value(row.beats_analytic)});
    }
    result.add_scalar("best_model_" + study.algo,
                      Value(study.models.front().model));
    result.add_scalar("analytic_rmse_" + study.algo,
                      Value::fixed(study.analytic_rmse, 5));
  }
  os << table;
  for (const auto& study : report.algos) {
    os << study.algo << ": best fitted model is "
       << study.models.front().model << " (CV RMSE "
       << Table::fixed(study.models.front().cv.rmse, 5)
       << " vs analytic in-sample RMSE "
       << Table::fixed(study.analytic_rmse, 5) << ")\n";
  }
  result.text = os.str();
  return result;
}

}  // namespace

scal::FitDataset gather_zoo_dataset(const AlgoEntry& entry,
                                    run::Runner& runner) {
  std::vector<std::unique_ptr<scal::ClusterCombination>> owned;
  std::vector<scal::ClusterCombination*> ladder;
  for (int nodes : kZooLadder) {
    owned.push_back(make_zoo_combination(entry, nodes));
    ladder.push_back(owned.back().get());
  }
  return scal::gather_fit_points(entry.name, ladder, entry.fit_sizes, runner);
}

predict::FitStudyReport build_fit_report(
    const std::vector<const AlgoEntry*>& algos, run::Runner& runner) {
  const auto comm = predict::probe_comm_model(
      predict::ProbeConfig{.node = machine::sunwulf::sunblade_spec()});
  predict::FitStudyReport report;
  for (const AlgoEntry* entry : algos) {
    const auto data = gather_zoo_dataset(*entry, runner);
    report.algos.push_back(
        predict::build_algo_fit_study(data, *entry->model, comm));
  }
  return report;
}

void register_zoo_scenarios() {
  static const bool registered = [] {
    run::register_scenario(
        {"model_zoo_ranking",
         "fitted USL/granularity/BSF/HEET models ranked by cross-validated "
         "E_s error vs the analytic prediction",
         model_zoo_ranking});
    return true;
  }();
  (void)registered;
}

}  // namespace hetscale::scenarios
