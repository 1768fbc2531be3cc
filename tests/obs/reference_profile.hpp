// Reference implementations of the run-profile assembly, kept for
// differential tests: the time budget as one global sort of two edges per
// span swept against a map of lane states, and the critical path over
// map-keyed lane and inbox indexes of every span and message. Simple and
// slow; obs::compute_time_budget and obs::critical_path must agree with
// them bit for bit.
#pragma once

#include <vector>

#include "hetscale/obs/budget.hpp"
#include "hetscale/obs/critical_path.hpp"

namespace hetscale::obs::reference {

TimeBudget compute_time_budget(const SpanStore& store, double elapsed);

CriticalPath critical_path(const SpanStore& store,
                           const std::vector<PathMessage>& messages,
                           double elapsed);

}  // namespace hetscale::obs::reference
