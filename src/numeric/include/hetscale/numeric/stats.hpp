// Small descriptive-statistics helpers used by the marked-speed suite and
// the experiment reports.
#pragma once

#include <span>

namespace hetscale::numeric {

double mean(std::span<const double> xs);

/// Sample standard deviation (n-1 denominator); 0 for fewer than 2 samples.
double stddev(std::span<const double> xs);

/// |a - b| / max(|a|, |b|, eps) — symmetric relative error used when
/// comparing predicted vs measured scalability.
double relative_error(double a, double b);

}  // namespace hetscale::numeric
