// §3.3: "the original homogeneous isospeed scalability metric is a special
// case of isospeed-efficiency scalability". On an all-SunBlade ensemble,
// C = p·C_blade, so ψ computed from marked speeds must equal ψ computed
// from processor counts — exactly, at the same operating points.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/scal/metrics.hpp"
#include "hetscale/scal/series.hpp"

namespace hetscale::scal {
namespace {

std::unique_ptr<ClusterCombination> homogeneous_ge(int nodes) {
  ClusterCombination::Config config;
  config.cluster = machine::sunwulf::homogeneous_ensemble(nodes);
  config.with_data = false;
  return std::make_unique<ClusterCombination>(
      "hom-" + std::to_string(nodes), std::move(config), ge_algo());
}

TEST(HomogeneousSpecialCase, PsiEqualsIsospeedForm) {
  auto g2 = homogeneous_ge(2);
  auto g4 = homogeneous_ge(4);
  auto g8 = homogeneous_ge(8);
  std::vector<Combination*> combos{g2.get(), g4.get(), g8.get()};
  const auto report = scalability_series(combos, 0.25);

  const int procs[] = {2, 4, 8};
  for (std::size_t i = 0; i + 1 < report.points.size(); ++i) {
    ASSERT_TRUE(report.points[i].found);
    ASSERT_TRUE(report.points[i + 1].found);
    const double via_isospeed = isospeed_scalability(
        procs[i], report.points[i].work, procs[i + 1],
        report.points[i + 1].work);
    EXPECT_NEAR(report.steps[i].psi, via_isospeed, 1e-9 * via_isospeed);
  }
}

TEST(HomogeneousSpecialCase, MarkedSpeedIsProportionalToP) {
  auto g2 = homogeneous_ge(2);
  auto g8 = homogeneous_ge(8);
  EXPECT_NEAR(g8->marked_speed(), 4.0 * g2->marked_speed(),
              1e-6 * g8->marked_speed());
}

}  // namespace
}  // namespace hetscale::scal
