#include "hetscale/des/timeline.hpp"

#include <algorithm>

#include "hetscale/support/error.hpp"

namespace hetscale::des {

SimTime Timeline::reserve(SimTime earliest, SimTime duration) {
  HETSCALE_REQUIRE(duration >= 0.0, "reservation duration must be >= 0");
  HETSCALE_REQUIRE(earliest >= 0.0, "reservation time must be >= 0");
  const SimTime start = std::max(earliest, free_at_);
  free_at_ = start + duration;
  return free_at_;
}

}  // namespace hetscale::des
