#include "hetscale/scal/exec_time.hpp"

#include "hetscale/numeric/roots.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::scal {

CrossingPoint find_time_crossing(Combination& a, Combination& b,
                                 std::int64_t n_lo, std::int64_t n_hi) {
  HETSCALE_REQUIRE(n_lo >= 1 && n_hi > n_lo, "invalid size range");
  CrossingPoint crossing;

  auto b_wins = [&](std::int64_t n) {
    return b.measure(n).seconds <= a.measure(n).seconds;
  };

  if (b_wins(n_lo)) {
    crossing.exists = true;
    crossing.n = n_lo;
  } else {
    // Gallop until b wins, then bisect for the first winning size.
    std::int64_t lo = n_lo;
    std::int64_t hi = n_lo;
    bool found = false;
    while (hi < n_hi) {
      hi = std::min(n_hi, hi * 2);
      if (b_wins(hi)) {
        found = true;
        break;
      }
      lo = hi;
    }
    if (!found) return crossing;  // no crossing in range
    while (hi - lo > 1) {
      const std::int64_t mid = lo + (hi - lo) / 2;
      if (b_wins(mid)) {
        hi = mid;
      } else {
        lo = mid;
      }
    }
    crossing.exists = true;
    crossing.n = hi;
  }
  crossing.time_a = a.measure(crossing.n).seconds;
  crossing.time_b = b.measure(crossing.n).seconds;
  return crossing;
}

}  // namespace hetscale::scal
