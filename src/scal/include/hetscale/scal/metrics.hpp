// The isospeed-efficiency scalability metric (paper §3, Definitions 3–4).
//
// Notation follows the paper: W is work (flops), T execution time, C the
// system's marked speed (Definition 2), S = W/T the achieved speed,
// E_s = S/C the speed-efficiency, and
//
//     ψ(C, C') = (C' · W) / (C · W')
//
// the isospeed-efficiency scalability, where W' is the scaled problem size
// that restores E_s on the scaled system C'. ψ = 1 is ideal; real
// combinations have ψ < 1. On a homogeneous system (C = p·C_i) ψ reduces to
// the classic Sun–Rover isospeed scalability (p'·W)/(p·W').
#pragma once

#include <cstdint>

namespace hetscale::scal {

/// Achieved speed S = W / T (Definition 3 prerequisite).
double achieved_speed(double work_flops, double seconds);

/// Speed-efficiency E_s = W / (T · C) (Definition 3).
double speed_efficiency(double work_flops, double seconds,
                        double marked_speed_flops);

/// Isospeed-efficiency scalability ψ(C, C') = (C'·W) / (C·W')
/// (Definition 4 / §3.3). Equals 1 when W' is the ideal scaled work
/// W · C' / C.
double isospeed_efficiency_scalability(double c_from, double w_from,
                                       double c_to, double w_to);

/// The homogeneous special case: Sun–Rover isospeed scalability
/// ψ(p, p') = (p'·W) / (p·W').
double isospeed_scalability(double p_from, double w_from, double p_to,
                            double w_to);

}  // namespace hetscale::scal
