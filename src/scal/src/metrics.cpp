#include "hetscale/scal/metrics.hpp"

#include "hetscale/support/error.hpp"

namespace hetscale::scal {

double achieved_speed(double work_flops, double seconds) {
  HETSCALE_REQUIRE(work_flops >= 0.0, "work must be non-negative");
  HETSCALE_REQUIRE(seconds > 0.0, "time must be positive");
  return work_flops / seconds;
}

double speed_efficiency(double work_flops, double seconds,
                        double marked_speed_flops) {
  HETSCALE_REQUIRE(marked_speed_flops > 0.0, "marked speed must be positive");
  return achieved_speed(work_flops, seconds) / marked_speed_flops;
}

double isospeed_efficiency_scalability(double c_from, double w_from,
                                       double c_to, double w_to) {
  HETSCALE_REQUIRE(c_from > 0.0 && c_to > 0.0,
                   "marked speeds must be positive");
  HETSCALE_REQUIRE(w_from > 0.0 && w_to > 0.0, "work must be positive");
  return (c_to * w_from) / (c_from * w_to);
}

double isospeed_scalability(double p_from, double w_from, double p_to,
                            double w_to) {
  // Identical form with processor counts in place of marked speeds.
  return isospeed_efficiency_scalability(p_from, w_from, p_to, w_to);
}

}  // namespace hetscale::scal
