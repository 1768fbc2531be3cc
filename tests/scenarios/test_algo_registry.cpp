// The --algo registry: ladders, targets, analytic models and fit sizes.
#include "hetscale/scenarios/algo_registry.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/scal/combination.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::scenarios {
namespace {

scal::ClusterCombination::Config ge2_config() {
  scal::ClusterCombination::Config config;
  config.cluster = machine::sunwulf::ge_ensemble(2);
  config.with_data = false;
  return config;
}

TEST(AlgoRegistry, LaddersAndTargetsAgreeAcrossCommands) {
  // series and predict both read these: dense GE-like kernels on the GE
  // ladder at 0.3, MM-like on the MM ladder at 0.2, SpMV at 0.05.
  const auto ge_ladder = &machine::sunwulf::ge_ensemble;
  const auto mm_ladder = &machine::sunwulf::mm_ensemble;
  for (const char* name : {"ge", "jacobi", "ge_pivot", "sort"}) {
    EXPECT_EQ(find_algo(name).ensemble, ge_ladder) << name;
    EXPECT_EQ(find_algo(name).target_es, 0.3) << name;
  }
  for (const char* name : {"mm", "summa"}) {
    EXPECT_EQ(find_algo(name).ensemble, mm_ladder) << name;
    EXPECT_EQ(find_algo(name).target_es, 0.2) << name;
  }
  for (const char* name : {"spmv", "spmv-hom"}) {
    EXPECT_EQ(find_algo(name).ensemble, mm_ladder) << name;
    EXPECT_EQ(find_algo(name).target_es, 0.05) << name;
  }
}

TEST(AlgoRegistry, UnknownNameListsTheRegistry) {
  try {
    (void)find_algo("quicksort");
    FAIL() << "an unknown algorithm must throw";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find(algo_names()),
              std::string::npos);
  }
  EXPECT_EQ(algo_names(),
            "ge, mm, sort, jacobi, summa, ge_pivot, spmv, spmv-hom");
}

TEST(AlgoRegistry, RunOnMatchesMeasure) {
  // The single measurement path: run_on a fresh machine is measure().
  scal::ClusterCombination combo("GE-2", ge2_config(), find_algo("ge").spec);
  const auto& config = combo.config();
  auto machine = scal::make_machine(config.cluster, config.network,
                                    config.net_params, config.tuning);
  const scal::Measurement direct = combo.run_on(machine, 96);
  const scal::Measurement& cached = combo.measure(96);
  EXPECT_EQ(direct.seconds, cached.seconds);
  EXPECT_EQ(direct.speed_efficiency, cached.speed_efficiency);
  EXPECT_EQ(direct.overhead_s, cached.overhead_s);
}

TEST(AlgoRegistry, FitSizesExistExactlyWithAModel) {
  for (const auto& entry : algo_registry()) {
    EXPECT_EQ(entry.model == nullptr, entry.fit_sizes.empty()) << entry.name;
  }
}

TEST(AlgoRegistry, ZooAlgosAreTheModelledEntriesInOrder) {
  std::vector<std::string> names;
  for (const AlgoEntry* entry : zoo_algos()) {
    EXPECT_NE(entry->model, nullptr) << entry->name;
    names.push_back(entry->name);
  }
  EXPECT_EQ(names, (std::vector<std::string>{"ge", "mm", "jacobi", "spmv"}));
  for (const auto& name : names) {
    EXPECT_EQ(&find_zoo_algo(name), &find_algo(name)) << name;
  }
}

TEST(AlgoRegistry, ModelWorkMatchesTheSpecAtEveryFitSize) {
  // The model and the spec share their parameters (Jacobi's sweep count
  // among them), so the analytic W(N) is the measured one. SpMV's model
  // uses the expected nonzeros per row, not the synthetic matrix's count.
  for (const char* name : {"ge", "mm", "jacobi"}) {
    const AlgoEntry& entry = find_algo(name);
    for (const std::int64_t n : entry.fit_sizes) {
      EXPECT_EQ(entry.model->work(static_cast<double>(n)), entry.spec.work(n))
          << name << " n=" << n;
    }
  }
}

TEST(AlgoRegistry, UnmodelledNameListsTheZooAlgos) {
  for (const char* name : {"sort", "summa", "quicksort"}) {
    try {
      (void)find_zoo_algo(name);
      FAIL() << name << " has no analytic model and must throw";
    } catch (const PreconditionError& error) {
      EXPECT_NE(std::string(error.what()).find(
                    "supported: ge, mm, jacobi, spmv"),
                std::string::npos)
          << error.what();
    }
  }
}

}  // namespace
}  // namespace hetscale::scenarios
