#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "hetscale/vmpi/group.hpp"
#include "hetscale/vmpi/machine.hpp"
#include "test_cluster.hpp"

namespace hetscale::vmpi {
namespace {

using des::Task;

/// Runs one bcast of `bytes` from `root` under the given family and checks
/// every rank got the payload; returns completion time (max over ranks).
double run_bcast(int p, int root, double bytes,
                 const CollectiveTuning& tuning) {
  auto machine = Machine::switched(test_cluster(p), {}, tuning);
  auto latest = std::make_shared<double>(0.0);
  auto sum = std::make_shared<double>(0.0);
  machine.run([root, bytes, latest, sum](Comm& comm) -> Task<void> {
    Payload payload;
    if (comm.rank() == root) payload = Payload(777.0);
    const Payload out = co_await comm.bcast(root, bytes, std::move(payload));
    *sum += out.scalar();
    *latest = std::max(*latest, comm.now());
  });
  EXPECT_EQ(*sum, 777.0 * p);
  return *latest;
}

/// The same broadcast through a world-sized Group, whose bcast is a flat
/// tree at every message size.
double run_group_bcast(int p, double bytes) {
  auto machine = Machine::switched(test_cluster(p));
  auto latest = std::make_shared<double>(0.0);
  machine.run([p, bytes, latest](Comm& comm) -> Task<void> {
    std::vector<int> members(static_cast<std::size_t>(p));
    std::iota(members.begin(), members.end(), 0);
    Group world(comm, std::move(members));
    Payload payload;
    if (world.rank() == 0) payload = Payload(777.0);
    (void)co_await world.bcast(0, /*tag=*/5, bytes, std::move(payload));
    *latest = std::max(*latest, comm.now());
  });
  return *latest;
}

struct BcastCase {
  int p;
  int root;
};

class BcastAlgorithms : public ::testing::TestWithParam<BcastCase> {};
INSTANTIATE_TEST_SUITE_P(
    Shapes, BcastAlgorithms,
    ::testing::Values(BcastCase{2, 0}, BcastCase{3, 2}, BcastCase{7, 0},
                      BcastCase{8, 5}, BcastCase{16, 0}, BcastCase{17, 16}));

TEST_P(BcastAlgorithms, FlatTreeDeliversFromAnyRoot) {
  run_bcast(GetParam().p, GetParam().root, 1e3,
            CollectiveTuning::legacy_flat());
}

TEST_P(BcastAlgorithms, BinomialTreeDeliversFromAnyRoot) {
  run_bcast(GetParam().p, GetParam().root, 1e3, CollectiveTuning::tree());
}

TEST_P(BcastAlgorithms, FlatLargeMessagePathDeliversFromAnyRoot) {
  // Van de Geijn scatter + ring.
  run_bcast(GetParam().p, GetParam().root, kLargeBcastThresholdBytes,
            CollectiveTuning::legacy_flat());
}

TEST_P(BcastAlgorithms, LargeMessagePathDeliversFromAnyRoot) {
  // Binomial scatter + doubling allgather.
  run_bcast(GetParam().p, GetParam().root, kLargeBcastThresholdBytes,
            CollectiveTuning::tree());
}

TEST(BcastAlgorithms, BinomialBeatsFlatAtScaleOnSwitch) {
  const double t_flat = run_bcast(32, 0, 4e3, CollectiveTuning::legacy_flat());
  const double t_binomial = run_bcast(32, 0, 4e3, CollectiveTuning::tree());
  EXPECT_LT(t_binomial, 0.5 * t_flat);  // log p vs p rounds
}

TEST(BcastAlgorithms, BinomialScalesLogarithmically) {
  const double t8 = run_bcast(8, 0, 2e3, CollectiveTuning::tree());
  const double t64 = run_bcast(64, 0, 2e3, CollectiveTuning::tree());
  // 3 rounds -> 6 rounds: time should roughly double, nowhere near 8x.
  EXPECT_LT(t64, 3.0 * t8);
  EXPECT_GT(t64, 1.5 * t8);
}

TEST(BcastAlgorithms, VdGBeatsFlatForLargeMessages) {
  // Within the paper-era family: the vdG scatter + ring against a flat tree
  // of the same message, so the ratio is ~2m/B against (p-1)m/B.
  const double bytes = 1e6;
  const double t_flat = run_group_bcast(16, bytes);
  const double t_vdg =
      run_bcast(16, 0, bytes, CollectiveTuning::legacy_flat());
  EXPECT_LT(t_vdg, 0.4 * t_flat);  // ~2m/B vs (p-1)m/B
}

TEST(BcastAlgorithms, ThresholdBoundaryIsRespected) {
  // Just below the threshold: the short-message tree (root-serialized or
  // log p full-size rounds, slower at p=16); at it: scatter + allgather.
  for (const auto& tuning :
       {CollectiveTuning::legacy_flat(), CollectiveTuning::tree()}) {
    SCOPED_TRACE(tuning == CollectiveTuning::tree() ? "tree" : "legacy_flat");
    const double below =
        run_bcast(16, 0, kLargeBcastThresholdBytes - 1.0, tuning);
    const double at = run_bcast(16, 0, kLargeBcastThresholdBytes, tuning);
    EXPECT_LT(at, below);  // larger message, yet faster: algorithm switched
  }
}

TEST(BcastAlgorithms, SingleRankBcastIsFree) {
  for (const auto& tuning :
       {CollectiveTuning::legacy_flat(), CollectiveTuning::tree()}) {
    EXPECT_DOUBLE_EQ(run_bcast(1, 0, 1e6, tuning), 0.0);
  }
}

}  // namespace
}  // namespace hetscale::vmpi
