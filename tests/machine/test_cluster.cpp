#include "hetscale/machine/cluster.hpp"

#include <gtest/gtest.h>

#include "hetscale/support/error.hpp"
#include "hetscale/support/units.hpp"

namespace hetscale::machine {
namespace {

NodeSpec fast_spec() {
  return NodeSpec{"Fast", 2, units::mflops(100.0), 1e9, 4e8, {1.0}};
}

NodeSpec slow_spec() {
  return NodeSpec{"Slow", 1, units::mflops(25.0), 1e8, 4e8, {1.0}};
}

TEST(Cluster, ProcessorsEnumerateInNodeThenCpuOrder) {
  Cluster cluster;
  cluster.add_node("a", fast_spec());       // 2 CPUs
  cluster.add_node("b", slow_spec());       // 1 CPU
  const auto procs = cluster.processors();
  ASSERT_EQ(procs.size(), 3u);
  EXPECT_EQ(procs[0].node, 0);
  EXPECT_EQ(procs[0].cpu, 0);
  EXPECT_EQ(procs[1].node, 0);
  EXPECT_EQ(procs[1].cpu, 1);
  EXPECT_EQ(procs[2].node, 1);
  EXPECT_DOUBLE_EQ(procs[0].rate_flops, units::mflops(100.0));
  EXPECT_DOUBLE_EQ(procs[2].rate_flops, units::mflops(25.0));
}

TEST(Cluster, CpusUsedRestrictsParticipation) {
  Cluster cluster;
  cluster.add_node("a", fast_spec(), /*cpus_used=*/1);
  EXPECT_EQ(cluster.processor_count(), 1);
}

TEST(Cluster, CpusUsedBoundsEnforced) {
  Cluster cluster;
  EXPECT_THROW(cluster.add_node("a", fast_spec(), 3), PreconditionError);
  EXPECT_THROW(cluster.add_node("a", fast_spec(), 0), PreconditionError);
}

TEST(Cluster, AggregateRateSumsUsedCpus) {
  Cluster cluster;
  cluster.add_node("a", fast_spec(), 2);
  cluster.add_node("b", slow_spec());
  EXPECT_DOUBLE_EQ(cluster.aggregate_rate_flops(), units::mflops(225.0));
}

TEST(Cluster, InvalidSpecsRejected) {
  Cluster cluster;
  NodeSpec bad = fast_spec();
  bad.cpu_rate_flops = 0.0;
  EXPECT_THROW(cluster.add_node("x", bad), PreconditionError);
  bad = fast_spec();
  bad.cpus = 0;
  EXPECT_THROW(cluster.add_node("x", bad), PreconditionError);
}

TEST(Cluster, SummaryGroupsByModelAndCpus) {
  Cluster cluster;
  cluster.add_node("a", fast_spec(), 2);
  cluster.add_node("b", slow_spec());
  cluster.add_node("c", slow_spec());
  const auto text = cluster.summary();
  EXPECT_NE(text.find("1x Fast(2cpu)"), std::string::npos);
  EXPECT_NE(text.find("2x Slow"), std::string::npos);
}

}  // namespace
}  // namespace hetscale::machine
