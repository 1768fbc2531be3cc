// Scalability versus execution time (paper ref [8], X.H. Sun, JPDC 2002).
//
// Scalability and execution time are two views of the same data: under
// isospeed-efficiency scaling, T' = W' / (E_s · C'), so a more scalable
// combination (smaller W' growth) has the smaller scaled execution time.
// This module adds *crossing-point analysis*: the problem size at which one
// combination starts beating another outright.
#pragma once

#include <cstdint>

#include "hetscale/scal/combination.hpp"

namespace hetscale::scal {

/// Crossing-point analysis between two combinations measured at the SAME
/// problem sizes (e.g. the same algorithm on a small and a big system):
/// the smallest n in [n_lo, n_hi] where `b` is at least as fast as `a`.
struct CrossingPoint {
  bool exists = false;
  std::int64_t n = -1;        ///< first size where T_b <= T_a
  double time_a = 0.0;        ///< times at the crossing
  double time_b = 0.0;
};

/// Finds the crossing by galloping + integer bisection on the (assumed
/// eventually-monotone) time difference. O(log range) measurements.
CrossingPoint find_time_crossing(Combination& a, Combination& b,
                                 std::int64_t n_lo, std::int64_t n_hi);

}  // namespace hetscale::scal
