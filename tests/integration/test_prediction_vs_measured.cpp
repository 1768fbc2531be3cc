// The paper's §4.5 headline: scalability predicted from measured machine
// parameters matches the measured scalability.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/numeric/stats.hpp"
#include "hetscale/predict/models.hpp"
#include "hetscale/predict/probe.hpp"
#include "hetscale/scal/series.hpp"

namespace hetscale {
namespace {

TEST(PredictionVsMeasured, GeRequiredSizeWithinModelError) {
  const auto comm = predict::probe_comm_model(
      predict::ProbeConfig{.node = machine::sunwulf::sunblade_spec()});
  predict::GeOverheadModel model;

  scal::ClusterCombination::Config config;
  config.cluster = machine::sunwulf::ge_ensemble(4);
  config.with_data = false;
  scal::ClusterCombination combo("GE-4", std::move(config), scal::ge_algo());

  const auto measured = scal::required_problem_size(combo, 0.3);
  ASSERT_TRUE(measured.found);

  const auto system = predict::system_model_for(
      machine::sunwulf::ge_ensemble(4), comm);
  const auto predicted = predict::predicted_required_size(model, system, 0.3);

  EXPECT_LT(numeric::relative_error(static_cast<double>(predicted),
                                    static_cast<double>(measured.n)),
            0.30);
}

TEST(PredictionVsMeasured, GeScalabilityCloseToMeasured) {
  const auto comm = predict::probe_comm_model(
      predict::ProbeConfig{.node = machine::sunwulf::sunblade_spec()});
  predict::GeOverheadModel model;

  auto make_combo = [](int nodes) {
    scal::ClusterCombination::Config config;
    config.cluster = machine::sunwulf::ge_ensemble(nodes);
    config.with_data = false;
    return std::make_unique<scal::ClusterCombination>(
        "GE-" + std::to_string(nodes), std::move(config), scal::ge_algo());
  };
  auto g2 = make_combo(2);
  auto g4 = make_combo(4);
  std::vector<scal::Combination*> combos{g2.get(), g4.get()};
  const auto measured = scal::scalability_series(combos, 0.3);

  const double predicted = predict::predicted_scalability(
      model,
      predict::system_model_for(machine::sunwulf::ge_ensemble(2), comm),
      predict::system_model_for(machine::sunwulf::ge_ensemble(4), comm),
      0.3);

  ASSERT_TRUE(measured.points[1].found);
  EXPECT_LT(numeric::relative_error(predicted, measured.steps[0].psi), 0.25);
}

}  // namespace
}  // namespace hetscale
