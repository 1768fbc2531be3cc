// Baseline scalability metrics the paper compares against (§2, Related
// Work). Implemented so the ablation bench can put them side-by-side with
// isospeed-efficiency on identical runs:
//
//  * Speedup, the root of parallel efficiency and the isoefficiency view
//    (Kumar, Grama, Gupta, Karypis [3]) — requires a *sequential*
//    execution time, which is exactly the practical weakness the paper
//    calls out.
//  * Jogalekar–Woodside productivity-based scalability [5] — value
//    delivered per unit cost; needs a money cost model, not an intrinsic
//    property of the machine.
//  * Pastor–Bosque heterogeneous efficiency [7] — speedup over the
//    "equivalent processor count" relative to a reference node; inherits
//    the sequential-time requirement.
#pragma once

#include <span>

#include "hetscale/machine/cluster.hpp"

namespace hetscale::scal {

/// Speedup = T_seq / T_par.
double speedup(double t_seq, double t_par);

// ---- Jogalekar–Woodside ----

/// Productivity F = (useful value delivered per second) / (cost per
/// second). The "value" here is achieved speed (flop/s) and cost is money.
double productivity(double value_per_s, double cost_per_s);

/// J-W scalability of a scaling step: productivity(scaled)/productivity(
/// base); "a system is scalable if productivity keeps pace with cost"
/// (>= ~1).
double jw_scalability(double productivity_base, double productivity_scaled);

/// A simple rental-cost model: dollars per hour proportional to each
/// node's marked-speed-class rate. `dollars_per_mflops_hour` prices one
/// sustained Mflop/s for an hour. Returns cost per *second* of the
/// participating processors.
double cluster_cost_per_s(const machine::Cluster& cluster,
                          double dollars_per_mflops_hour);

// ---- Pastor–Bosque ----

/// Equivalent processor count of a heterogeneous ensemble relative to a
/// reference node speed: Σ_i speeds[i] / reference_speed.
double equivalent_processors(std::span<const double> speeds,
                             double reference_speed);

/// Heterogeneous efficiency: speedup over the reference node's sequential
/// time, divided by the equivalent processor count.
double pastor_bosque_efficiency(double t_seq_ref, double t_par,
                                std::span<const double> speeds,
                                double reference_speed);

}  // namespace hetscale::scal
