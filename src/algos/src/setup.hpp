// Internal: setup steps more than one algos program shares.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "hetscale/numeric/matrix.hpp"
#include "hetscale/vmpi/machine.hpp"

namespace hetscale::algos {

/// The marked speeds a run distributes its data by: `speeds` as given, or
/// measured from `machine`'s cluster when empty. Requires one per rank.
std::vector<double> rank_speeds(const vmpi::Machine& machine,
                                std::vector<double> speeds);

/// The random n x n inputs A and B that row MM and SUMMA multiply, drawn
/// from one seeded stream (A first).
std::pair<numeric::Matrix, numeric::Matrix> mm_inputs(std::int64_t n,
                                                      std::uint64_t seed);

}  // namespace hetscale::algos
