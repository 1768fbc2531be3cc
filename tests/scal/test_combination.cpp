#include "hetscale/scal/combination.hpp"

#include <gtest/gtest.h>

#include <string>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/marked/suite.hpp"
#include "hetscale/numeric/linsolve.hpp"
#include "hetscale/numeric/polynomial.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::scal {
namespace {

ClusterCombination::Config ge2_config() {
  ClusterCombination::Config config;
  config.cluster = machine::sunwulf::ge_ensemble(2);
  config.with_data = false;
  return config;
}

TEST(Combination, MarkedSpeedMatchesDefinitionTwo) {
  ClusterCombination combo("GE-2", ge2_config(), ge_algo());
  EXPECT_NEAR(combo.marked_speed(),
              marked::system_marked_speed(combo.cluster()), 1.0);
}

TEST(Combination, WorkPolynomials) {
  ClusterCombination ge("GE", ge2_config(), ge_algo());
  ClusterCombination::Config mm_config;
  mm_config.cluster = machine::sunwulf::mm_ensemble(2);
  ClusterCombination mm("MM", std::move(mm_config), mm_algo());
  EXPECT_DOUBLE_EQ(ge.work(100), numeric::ge_workload(100.0));
  EXPECT_DOUBLE_EQ(mm.work(100), numeric::mm_workload(100.0));
}

TEST(Combination, MeasurementFieldsAreConsistent) {
  ClusterCombination combo("GE-2", ge2_config(), ge_algo());
  const auto& m = combo.measure(64);
  EXPECT_EQ(m.n, 64);
  EXPECT_DOUBLE_EQ(m.work_flops, combo.work(64));
  EXPECT_GT(m.seconds, 0.0);
  EXPECT_NEAR(m.speed_flops, m.work_flops / m.seconds, 1e-6);
  EXPECT_NEAR(m.speed_efficiency, m.speed_flops / combo.marked_speed(),
              1e-12);
  EXPECT_GE(m.overhead_s, 0.0);
}

TEST(Combination, MeasurementsAreCached) {
  ClusterCombination combo("GE-2", ge2_config(), ge_algo());
  const auto* first = &combo.measure(48);
  const auto* second = &combo.measure(48);
  EXPECT_EQ(first, second);  // same object: no re-simulation
}

TEST(Combination, SpeedEfficiencyIncreasesWithProblemSize) {
  ClusterCombination combo("GE-2", ge2_config(), ge_algo());
  double prev = 0.0;
  for (std::int64_t n : {16, 32, 64, 128, 256}) {
    const double es = combo.measure(n).speed_efficiency;
    EXPECT_GT(es, prev) << "n=" << n;
    prev = es;
  }
  EXPECT_LT(prev, 1.0);
}

TEST(Combination, EfficiencyBoundedByOne) {
  ClusterCombination combo("GE-2", ge2_config(), ge_algo());
  for (std::int64_t n : {100, 500, 1000}) {
    EXPECT_LT(combo.measure(n).speed_efficiency, 1.0);
    EXPECT_GT(combo.measure(n).speed_efficiency, 0.0);
  }
}

TEST(Combination, CurveSamplingPreservesOrder) {
  ClusterCombination combo("GE-2", ge2_config(), ge_algo());
  const std::vector<std::int64_t> sizes{16, 64, 256};
  const auto curve = sample_efficiency_curve(combo, sizes);
  EXPECT_EQ(curve.label, "GE-2");
  ASSERT_EQ(curve.samples.size(), 3u);
  EXPECT_EQ(curve.samples[0].n, 16);
  EXPECT_EQ(curve.samples[2].n, 256);
  EXPECT_EQ(curve.sizes(), (std::vector<double>{16, 64, 256}));
}

TEST(Combination, TrendLineFitsTheCurveWell) {
  ClusterCombination combo("GE-2", ge2_config(), ge_algo());
  const std::vector<std::int64_t> sizes{32, 64, 96, 128, 192, 256, 384, 512};
  const auto curve = sample_efficiency_curve(combo, sizes);
  const auto trend = fit_trend(curve, 3);
  EXPECT_GT(numeric::r_squared(trend, curve.sizes(), curve.efficiencies()),
            0.98);
}

TEST(Combination, SwitchedNetworkIsAtLeastAsFast) {
  auto shared_config = ge2_config();
  auto switched_config = ge2_config();
  switched_config.network = NetworkKind::kSwitched;
  ClusterCombination on_bus("GE-bus", std::move(shared_config), ge_algo());
  ClusterCombination on_switch("GE-switch", std::move(switched_config),
                               ge_algo());
  EXPECT_LE(on_switch.measure(128).seconds, on_bus.measure(128).seconds);
}

TEST(Combination, InvalidMeasureSizeRejected) {
  ClusterCombination combo("GE-2", ge2_config(), ge_algo());
  EXPECT_THROW(combo.measure(0), PreconditionError);
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
  ClusterCombination combo("GE-2", ge2_config(), find_algo("ge").spec);
  const auto& config = combo.config();
  auto machine = make_machine(config.cluster, config.network,
                              config.net_params, config.tuning);
  const Measurement direct = combo.run_on(machine, 96);
  const Measurement& cached = combo.measure(96);
  EXPECT_EQ(direct.seconds, cached.seconds);
  EXPECT_EQ(direct.speed_efficiency, cached.speed_efficiency);
  EXPECT_EQ(direct.overhead_s, cached.overhead_s);
}

}  // namespace
}  // namespace hetscale::scal
