#include "hetscale/machine/parse.hpp"

#include <cctype>
#include <climits>
#include <cstdint>
#include <sstream>
#include <utility>
#include <vector>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/support/args.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::machine {

namespace {

NodeSpec spec_for(const std::string& type) {
  if (type == "server") return sunwulf::server_spec();
  if (type == "sunblade") return sunwulf::sunblade_spec();
  if (type == "v210") return sunwulf::v210_spec();
  throw PreconditionError("unknown node type '" + type +
                          "' (expected server, sunblade, or v210)");
}

/// One parsed group: `count` nodes of `type`, each using `cpus` CPUs.
struct Group {
  std::string type;
  NodeSpec spec;
  int count = 1;
  int cpus = -1;  // all
};

Group parse_group(std::string body) {
  Group group;
  if (const auto colon = body.find(':'); colon != std::string::npos) {
    group.cpus =
        static_cast<int>(parse_int(body.substr(colon + 1), "cpu count", 1,
                                   INT_MAX));
    body = body.substr(0, colon);
  }
  if (const auto x = body.find('x');
      x != std::string::npos && x + 1 < body.size() &&
      std::isdigit(static_cast<unsigned char>(body[x + 1]))) {
    group.count = static_cast<int>(
        parse_int(body.substr(x + 1), "node count", 1, kMaxClusterNodes));
    body = body.substr(0, x);
  }
  group.spec = spec_for(body);
  group.type = std::move(body);
  return group;
}

}  // namespace

Cluster parse_cluster(const std::string& description) {
  const auto texts = split(description, ',');
  HETSCALE_REQUIRE(!texts.empty(),
                   "cluster description must name at least one node");
  std::vector<Group> groups;
  std::int64_t total = 0;
  for (const auto& text : texts) {
    groups.push_back(parse_group(text));
    total += groups.back().count;
  }
  HETSCALE_REQUIRE(total <= kMaxClusterNodes,
                   "cluster description names " + std::to_string(total) +
                       " nodes; at most " + std::to_string(kMaxClusterNodes) +
                       " are supported");
  Cluster cluster;
  int node_index = 0;
  for (const Group& group : groups) {
    for (int i = 0; i < group.count; ++i) {
      std::ostringstream name;
      name << group.type << '-' << node_index++;
      cluster.add_node(name.str(), group.spec, group.cpus);
    }
  }
  return cluster;
}

}  // namespace hetscale::machine
