// Textual cluster descriptions — so tools and scripts can name a
// heterogeneous system without writing C++.
//
// Grammar (comma-separated groups):
//     group  := type [ 'x' count ] [ ':' cpus ]
//     type   := "server" | "sunblade" | "v210"        (Sunwulf catalog)
//
// Examples:
//     "server:2,sunbladex3"      server using 2 CPUs + three SunBlades
//     "v210x4:1"                 four V210s, one CPU each
//     "sunblade"                 one SunBlade
#pragma once

#include <string>

#include "hetscale/machine/cluster.hpp"

namespace hetscale::machine {

/// Parse a cluster description. Throws PreconditionError with a pointed
/// message on malformed input, unknown node types, or more than
/// kMaxClusterNodes (cluster.hpp) nodes; the last is checked before any
/// node is built.
Cluster parse_cluster(const std::string& description);

}  // namespace hetscale::machine
