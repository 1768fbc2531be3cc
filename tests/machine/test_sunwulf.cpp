#include "hetscale/machine/sunwulf.hpp"

#include <gtest/gtest.h>

#include <string>

#include "hetscale/support/error.hpp"

namespace hetscale::machine::sunwulf {
namespace {

TEST(Sunwulf, NodeSpecsMatchTestbedShape) {
  EXPECT_EQ(server_spec().cpus, 4);
  EXPECT_EQ(sunblade_spec().cpus, 1);
  EXPECT_EQ(v210_spec().cpus, 2);
  // V210 (1 GHz) is roughly twice the rate of the 480/500 MHz nodes.
  EXPECT_GT(v210_spec().cpu_rate_flops,
            1.5 * sunblade_spec().cpu_rate_flops);
  // SunBlade memory is the testbed's famous 128 MB.
  EXPECT_DOUBLE_EQ(sunblade_spec().memory_bytes, 128.0 * 1024 * 1024);
}

TEST(Sunwulf, BenchmarkBiasesAverageToOne) {
  for (const auto& spec : {server_spec(), sunblade_spec(), v210_spec()}) {
    double sum = 0.0;
    for (double b : spec.benchmark_bias) sum += b;
    EXPECT_NEAR(sum / static_cast<double>(spec.benchmark_bias.size()), 1.0,
                1e-12)
        << spec.model;
  }
}

class GeEnsemble : public ::testing::TestWithParam<int> {};

TEST_P(GeEnsemble, ServerPlusBladesWithPEqualNodesPlusOne) {
  const int nodes = GetParam();
  const Cluster cluster = ge_ensemble(nodes);
  EXPECT_EQ(cluster.node_count(), static_cast<std::size_t>(nodes));
  // Server contributes 2 CPUs, each SunBlade 1: p = nodes + 1.
  EXPECT_EQ(cluster.processor_count(), nodes + 1);
  EXPECT_EQ(cluster.nodes().front().spec.model, "SunFire server");
  EXPECT_EQ(cluster.nodes().front().cpus_used, 2);
  for (std::size_t i = 1; i < cluster.node_count(); ++i) {
    EXPECT_EQ(cluster.nodes()[i].spec.model, "SunBlade");
  }
}

INSTANTIATE_TEST_SUITE_P(PaperSizes, GeEnsemble,
                         ::testing::Values(2, 4, 8, 16, 32));

TEST(Sunwulf, MmEnsembleEightNodesMatchesPaperExample) {
  // "in the case of 8 nodes, the computing system is composed of one server
  //  node, three SunBlade compute nodes and four SunFire V210 compute nodes"
  const Cluster cluster = mm_ensemble(8);
  ASSERT_EQ(cluster.node_count(), 8u);
  int blades = 0;
  int v210s = 0;
  for (const auto& node : cluster.nodes()) {
    if (node.spec.model == "SunBlade") ++blades;
    if (node.spec.model == "SunFire V210") ++v210s;
  }
  EXPECT_EQ(blades, 3);
  EXPECT_EQ(v210s, 4);
  // One CPU per node in the MM ensembles: p == node count.
  EXPECT_EQ(cluster.processor_count(), 8);
}

TEST(Sunwulf, MmEnsembleIsHeterogeneous) {
  const Cluster cluster = mm_ensemble(4);
  const auto procs = cluster.processors();
  double lo = procs.front().rate_flops;
  double hi = lo;
  for (const auto& p : procs) {
    lo = std::min(lo, p.rate_flops);
    hi = std::max(hi, p.rate_flops);
  }
  EXPECT_GT(hi, 1.5 * lo);
}

TEST(Sunwulf, HomogeneousEnsembleAllEqual) {
  const Cluster cluster = homogeneous_ensemble(4);
  const auto procs = cluster.processors();
  ASSERT_EQ(procs.size(), 4u);
  for (const auto& p : procs) {
    EXPECT_DOUBLE_EQ(p.rate_flops, procs.front().rate_flops);
  }
}

TEST(Sunwulf, TooSmallEnsemblesRejected) {
  EXPECT_THROW(ge_ensemble(1), PreconditionError);
  EXPECT_THROW(mm_ensemble(1), PreconditionError);
  EXPECT_THROW(homogeneous_ensemble(0), PreconditionError);
}

// The bound is checked before the first node is built, so a count near
// INT_MAX fails at once instead of starting two billion add_node calls.
TEST(Sunwulf, EnsemblesAboveTheNodeBoundRejected) {
  const std::string bound = std::to_string(kMaxClusterNodes);
  for (const int nodes : {kMaxClusterNodes + 1, 2000000000}) {
    for (const auto& build :
         {ge_ensemble, mm_ensemble, homogeneous_ensemble}) {
      try {
        (void)build(nodes);
        ADD_FAILURE() << "accepted " << nodes << " nodes";
      } catch (const PreconditionError& error) {
        EXPECT_NE(std::string(error.what()).find(bound), std::string::npos)
            << error.what();
      }
    }
  }
}

}  // namespace
}  // namespace hetscale::machine::sunwulf
