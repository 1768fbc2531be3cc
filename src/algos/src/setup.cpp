#include "setup.hpp"

#include "hetscale/marked/suite.hpp"
#include "hetscale/support/error.hpp"
#include "hetscale/support/rng.hpp"

namespace hetscale::algos {

std::vector<double> rank_speeds(const vmpi::Machine& machine,
                                std::vector<double> speeds) {
  if (speeds.empty()) speeds = marked::rank_marked_speeds(machine.cluster());
  HETSCALE_REQUIRE(static_cast<int>(speeds.size()) == machine.world_size(),
                   "need one marked speed per rank");
  return speeds;
}

std::pair<numeric::Matrix, numeric::Matrix> mm_inputs(std::int64_t n,
                                                      std::uint64_t seed) {
  const auto order = static_cast<std::size_t>(n);
  Rng rng(seed);
  auto a = numeric::Matrix::random(order, order, rng);
  auto b = numeric::Matrix::random(order, order, rng);
  return {std::move(a), std::move(b)};
}

}  // namespace hetscale::algos
