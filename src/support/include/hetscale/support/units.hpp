// Physical units used throughout the simulator.
//
// All virtual time is kept in seconds (double), all computational work in
// floating-point operations (double, since counts exceed 2^32 routinely), all
// rates in flop/s, and all message sizes in bytes. The helpers here exist so
// that call sites can state their units explicitly instead of sprinkling
// magic factors of 1e6.
#pragma once

namespace hetscale::units {

/// Flop/s corresponding to `x` Mflop/s.
constexpr double mflops(double x) { return x * 1e6; }

/// Flop count corresponding to `x` Mflop.
constexpr double mflop(double x) { return x * 1e6; }

}  // namespace hetscale::units
