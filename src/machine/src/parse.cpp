#include "hetscale/machine/parse.hpp"

#include <cctype>
#include <climits>
#include <sstream>

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

int parse_positive_int(const std::string& text, const std::string& what) {
  return static_cast<int>(parse_int(text, what, 1, INT_MAX));
}

}  // namespace

Cluster parse_cluster(const std::string& description) {
  const auto groups = split(description, ',');
  HETSCALE_REQUIRE(!groups.empty(),
                   "cluster description must name at least one node");
  Cluster cluster;
  int node_index = 0;
  for (const auto& group : groups) {
    std::string body = group;
    int cpus = -1;  // all
    if (const auto colon = body.find(':'); colon != std::string::npos) {
      cpus = parse_positive_int(body.substr(colon + 1), "cpu count");
      body = body.substr(0, colon);
    }
    int count = 1;
    if (const auto x = body.find('x'); x != std::string::npos &&
                                       x + 1 < body.size() &&
                                       std::isdigit(body[x + 1])) {
      count = parse_positive_int(body.substr(x + 1), "node count");
      body = body.substr(0, x);
    }
    const NodeSpec spec = spec_for(body);
    for (int i = 0; i < count; ++i) {
      std::ostringstream name;
      name << body << '-' << node_index++;
      cluster.add_node(name.str(), spec, cpus);
    }
  }
  return cluster;
}

}  // namespace hetscale::machine
