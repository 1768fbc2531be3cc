#include "hetscale/scal/baselines.hpp"

#include "hetscale/support/error.hpp"

namespace hetscale::scal {

double speedup(double t_seq, double t_par) {
  HETSCALE_REQUIRE(t_seq > 0.0 && t_par > 0.0, "times must be positive");
  return t_seq / t_par;
}

double productivity(double value_per_s, double cost_per_s) {
  HETSCALE_REQUIRE(cost_per_s > 0.0, "cost must be positive");
  HETSCALE_REQUIRE(value_per_s >= 0.0, "value must be non-negative");
  return value_per_s / cost_per_s;
}

double jw_scalability(double productivity_base, double productivity_scaled) {
  HETSCALE_REQUIRE(productivity_base > 0.0,
                   "base productivity must be positive");
  return productivity_scaled / productivity_base;
}

double cluster_cost_per_s(const machine::Cluster& cluster,
                          double dollars_per_mflops_hour) {
  HETSCALE_REQUIRE(dollars_per_mflops_hour >= 0.0,
                   "price must be non-negative");
  const double mflops = cluster.aggregate_rate_flops() / 1e6;
  return mflops * dollars_per_mflops_hour / 3600.0;
}

double equivalent_processors(std::span<const double> speeds,
                             double reference_speed) {
  HETSCALE_REQUIRE(reference_speed > 0.0, "reference speed must be positive");
  double total = 0.0;
  for (double s : speeds) {
    HETSCALE_REQUIRE(s > 0.0, "speeds must be positive");
    total += s;
  }
  return total / reference_speed;
}

double pastor_bosque_efficiency(double t_seq_ref, double t_par,
                                std::span<const double> speeds,
                                double reference_speed) {
  return speedup(t_seq_ref, t_par) /
         equivalent_processors(speeds, reference_speed);
}

}  // namespace hetscale::scal
