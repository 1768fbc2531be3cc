// FitStudy: heterogeneity score properties, gather shape/order, and
// bit-identity of the gathered dataset at jobs 1 and jobs 4.
#include "hetscale/scal/fit_study.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/scal/measure_store.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::scal {
namespace {

TEST(HeterogeneityScore, HomogeneousScoresZero) {
  const std::vector<double> same{2.0, 2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(heterogeneity_score(same), 0.0);
  const std::vector<double> one{5.0};
  EXPECT_DOUBLE_EQ(heterogeneity_score(one), 0.0);
}

TEST(HeterogeneityScore, SpreadRaisesScoreTowardOne) {
  const std::vector<double> mild{2.0, 1.0};
  const std::vector<double> wild{100.0, 1.0, 1.0, 1.0};
  const double h_mild = heterogeneity_score(mild);
  const double h_wild = heterogeneity_score(wild);
  EXPECT_GT(h_mild, 0.0);
  EXPECT_GT(h_wild, h_mild);
  EXPECT_LT(h_wild, 1.0);
  // 1 - (sum)/(p*max) exactly.
  EXPECT_DOUBLE_EQ(h_mild, 1.0 - 3.0 / (2.0 * 2.0));
}

TEST(HeterogeneityScore, DegenerateInputsScoreZero) {
  EXPECT_DOUBLE_EQ(heterogeneity_score({}), 0.0);
  const std::vector<double> zeros{0.0, 0.0};
  EXPECT_DOUBLE_EQ(heterogeneity_score(zeros), 0.0);
}

ClusterCombination::Config ge_config(int nodes) {
  ClusterCombination::Config config;
  config.cluster = machine::sunwulf::ge_ensemble(nodes);
  config.with_data = false;
  return config;
}

TEST(FitStudy, GatherIsLadderMajorSizeMinorWithFullRows) {
  run::Runner runner(1);
  ClusterCombination two("C2", ge_config(2), ge_algo());
  ClusterCombination four("C4", ge_config(4), ge_algo());
  std::vector<ClusterCombination*> ladder{&two, &four};
  const std::vector<std::int64_t> sizes{32, 64};
  const auto data = gather_fit_points("ge", ladder, sizes, runner);

  EXPECT_EQ(data.algo, "ge");
  ASSERT_EQ(data.points.size(), 4u);
  EXPECT_EQ(data.points[0].system, "C2");
  EXPECT_EQ(data.points[0].n, 32);
  EXPECT_EQ(data.points[1].system, "C2");
  EXPECT_EQ(data.points[1].n, 64);
  EXPECT_EQ(data.points[2].system, "C4");
  EXPECT_EQ(data.points[3].n, 64);
  for (const auto& point : data.points) {
    EXPECT_GT(point.p, 1);
    EXPECT_GT(point.work_flops, 0.0);
    EXPECT_GT(point.seconds, 0.0);
    EXPECT_GT(point.speed_efficiency, 0.0);
    EXPECT_LE(point.speed_efficiency, 1.0);
    EXPECT_GT(point.marked_speed, 0.0);
    EXPECT_GT(point.root_speed, 0.0);
    EXPECT_GE(point.het_score, 0.0);
    EXPECT_LT(point.het_score, 1.0);
  }
  EXPECT_EQ(data.processor_counts(),
            (std::vector<int>{two.processor_count(),
                              four.processor_count()}));
  EXPECT_EQ(data.sizes(), (std::vector<std::int64_t>{32, 64}));
}

TEST(FitStudy, RunnerAndSequentialGatherAreBitIdentical) {
  // Disable the store so the comparison is genuine recomputation.
  auto& store = MeasurementStore::global();
  const bool was_enabled = store.enabled();
  store.set_enabled(false);

  ClusterCombination a("C2", ge_config(2), ge_algo());
  ClusterCombination b("C2-again", ge_config(2), ge_algo());
  std::vector<ClusterCombination*> ladder_a{&a};
  std::vector<ClusterCombination*> ladder_b{&b};
  const std::vector<std::int64_t> sizes{24, 48, 96};

  run::Runner one(1);
  const auto sequential = gather_fit_points("ge", ladder_a, sizes, one);
  run::Runner four(4);
  const auto threaded = gather_fit_points("ge", ladder_b, sizes, four);
  store.set_enabled(was_enabled);

  ASSERT_EQ(sequential.points.size(), threaded.points.size());
  for (std::size_t i = 0; i < sequential.points.size(); ++i) {
    EXPECT_EQ(sequential.points[i].seconds, threaded.points[i].seconds);
    EXPECT_EQ(sequential.points[i].speed_efficiency,
              threaded.points[i].speed_efficiency);
    EXPECT_EQ(sequential.points[i].work_flops,
              threaded.points[i].work_flops);
  }
}

TEST(FitStudy, RejectsEmptyLadderOrSizes) {
  run::Runner runner(1);
  ClusterCombination two("C2", ge_config(2), ge_algo());
  std::vector<ClusterCombination*> ladder{&two};
  const std::vector<std::int64_t> sizes{32};
  EXPECT_THROW(gather_fit_points("ge", {}, sizes, runner),
               PreconditionError);
  EXPECT_THROW(gather_fit_points("ge", ladder, {}, runner),
               PreconditionError);
}

}  // namespace
}  // namespace hetscale::scal
