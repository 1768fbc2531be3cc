#include "hetscale/machine/parse.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <random>
#include <string>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::machine {
namespace {

TEST(ParseCluster, SingleNode) {
  const auto cluster = parse_cluster("sunblade");
  ASSERT_EQ(cluster.node_count(), 1u);
  EXPECT_EQ(cluster.nodes()[0].spec.model, "SunBlade");
  EXPECT_EQ(cluster.processor_count(), 1);
}

TEST(ParseCluster, CountsAndCpus) {
  const auto cluster = parse_cluster("server:2,sunbladex3");
  ASSERT_EQ(cluster.node_count(), 4u);
  EXPECT_EQ(cluster.nodes()[0].spec.model, "SunFire server");
  EXPECT_EQ(cluster.nodes()[0].cpus_used, 2);
  for (std::size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(cluster.nodes()[i].spec.model, "SunBlade");
  }
  EXPECT_EQ(cluster.processor_count(), 5);
}

TEST(ParseCluster, CountWithCpuOverride) {
  const auto cluster = parse_cluster("v210x4:1");
  ASSERT_EQ(cluster.node_count(), 4u);
  for (const auto& node : cluster.nodes()) {
    EXPECT_EQ(node.spec.model, "SunFire V210");
    EXPECT_EQ(node.cpus_used, 1);
  }
}

TEST(ParseCluster, DefaultsUseAllCpus) {
  const auto cluster = parse_cluster("v210");
  EXPECT_EQ(cluster.processor_count(), 2);  // V210 has 2 CPUs
}

TEST(ParseCluster, SpacesTolerated) {
  const auto cluster = parse_cluster(" server:1 , sunblade ");
  EXPECT_EQ(cluster.node_count(), 2u);
}

TEST(ParseCluster, MatchesHandBuiltEquivalent) {
  const auto parsed = parse_cluster("server:2,sunbladex3");
  const auto built = sunwulf::ge_ensemble(4);
  EXPECT_EQ(parsed.processor_count(), built.processor_count());
  EXPECT_DOUBLE_EQ(parsed.aggregate_rate_flops(),
                   built.aggregate_rate_flops());
}

TEST(ParseCluster, UniqueNodeNames) {
  const auto cluster = parse_cluster("sunbladex3");
  EXPECT_NE(cluster.nodes()[0].name, cluster.nodes()[1].name);
  EXPECT_NE(cluster.nodes()[1].name, cluster.nodes()[2].name);
}

TEST(ParseCluster, RejectsGarbage) {
  EXPECT_THROW(parse_cluster(""), PreconditionError);
  EXPECT_THROW(parse_cluster("cray"), PreconditionError);
  EXPECT_THROW(parse_cluster("sunblade:0"), PreconditionError);
  EXPECT_THROW(parse_cluster("sunblade:abc"), PreconditionError);
  EXPECT_THROW(parse_cluster("server:5"), PreconditionError);  // only 4 CPUs
}

TEST(ParseCluster, RejectsCountsThatWouldWrap) {
  // Both once wrapped through a cast to int: a cpu count of -1 meant "all
  // CPUs", and a node count of 1 built one node.
  const struct {
    const char* description;
    const char* reason;
  } rows[] = {
      {"server:4294967295", "cpu count must be in [1, 2147483647]"},
      {"sunbladex4294967297", "node count must be in [1, 65536]"},
      {"sunbladex2:", "cpu count needs an integer"},
      {"server:99999999999999999999", "cpu count is out of range"},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.description);
    try {
      (void)parse_cluster(row.description);
      ADD_FAILURE() << "accepted";
    } catch (const PreconditionError& error) {
      EXPECT_NE(std::string(error.what()).find(row.reason), std::string::npos)
          << error.what();
    }
  }
}

// The node total is checked against kMaxClusterNodes before any node is
// built, so a huge count fails at once instead of building nodes first.
TEST(ParseCluster, RejectsMoreNodesThanTheBound) {
  const struct {
    const char* description;
    const char* reason;
  } rows[] = {
      {"sunbladex2000000000", "node count must be in [1, 65536]"},
      {"sunbladex65537", "node count must be in [1, 65536]"},
      {"sunbladex40000,sunbladex40000",
       "names 80000 nodes; at most 65536 are supported"},
  };
  for (const auto& row : rows) {
    SCOPED_TRACE(row.description);
    try {
      (void)parse_cluster(row.description);
      ADD_FAILURE() << "accepted";
    } catch (const PreconditionError& error) {
      EXPECT_NE(std::string(error.what()).find(row.reason), std::string::npos)
          << error.what();
    }
  }
  const auto at_bound = parse_cluster("sunbladex65535,v210");
  EXPECT_EQ(at_bound.node_count(), static_cast<std::size_t>(kMaxClusterNodes));
}

// Seeded strings over the grammar's alphabet, with counts past the bound and
// stray bytes mixed in: each one parses into at most kMaxClusterNodes nodes
// or throws PreconditionError, never anything else.
TEST(ParseCluster, FuzzedDescriptionsParseOrThrowPreconditionError) {
  const std::array<std::string, 18> tokens = {
      "server", "sunblade", "v210", "x", "x", ":", ":", ",", ",", " ",
      "0", "1", "2", "9", "65537", "99999999999999999999", "-", "\xe9"};
  std::mt19937_64 rng(7);
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < 5000; ++i) {
    std::string description;
    const auto length = rng() % 10;
    for (std::uint64_t k = 0; k < length; ++k) {
      description += tokens[rng() % tokens.size()];
    }
    SCOPED_TRACE(description);
    try {
      const Cluster cluster = parse_cluster(description);
      EXPECT_GE(cluster.node_count(), 1u);
      EXPECT_LE(cluster.node_count(),
                static_cast<std::size_t>(kMaxClusterNodes));
      ++parsed;
    } catch (const PreconditionError&) {
      ++rejected;
    }
  }
  EXPECT_GT(parsed, 0);
  EXPECT_GT(rejected, 0);
}

}  // namespace
}  // namespace hetscale::machine
