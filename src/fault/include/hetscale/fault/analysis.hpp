// Degraded-mode speed analysis over a FaultPlan.
//
// The paper's marked speed C_i (Definitions 1-2) is a constant of the
// hardware; under a fault plan the *delivered* rate drifts. The effective
// marked speed C_i(t) = C_i * slowdown_factor_i(t) is the plan's view of
// that drift, and its time average over an execution window is the
// degraded counterpart of C used by scal's fault study: a degraded
// speed-efficiency W / (T * C_eff) answers "how well did we use what the
// faulty machine actually offered", while the classic E_s = W / (T * C)
// answers "what did the faults cost against the healthy machine".
#pragma once

#include <span>

#include "hetscale/fault/plan.hpp"

namespace hetscale::fault {

/// Time average of C_i(t) over [0, horizon) — exact integral over the
/// plan's piecewise-constant factors, not a sampling.
double mean_effective_rank_speed(const FaultPlan& plan, int rank,
                                 double healthy_speed, des::SimTime horizon);

/// Time average of C(t) = sum_i C_i(t) over [0, horizon).
double mean_effective_marked_speed(const FaultPlan& plan,
                                   std::span<const double> healthy_speeds,
                                   des::SimTime horizon);

}  // namespace hetscale::fault
