// TimeBudget — an exact partition of a run's elapsed virtual time.
//
// compute_time_budget() sweeps the span store and classifies every instant
// of [0, elapsed] by what the lanes (ranks) were doing:
//
//   compute     >= 2 lanes executing compute spans in parallel
//   sequential  exactly 1 lane computing (everyone else blocked) — this is
//               the measured t0 of the paper's scalability model
//   fault       no lane computing, >= 1 lane charged to a fault span
//   comm        no lane computing or faulting, >= 1 lane in a comm span
//   residual    the remainder (start-up skew, uninstrumented time)
//
// A lane inside several spans at once takes the highest-priority one:
// fault > compute > comm > idle. Every bucket (residual included) is a
// sum of segment durations from the same sweep, so each is non-negative
// and the five buckets partition [0, elapsed]: they sum back to elapsed_s
// up to floating-point associativity — exactly, when span bounds are
// dyadic rationals.
//
// The sweep runs in two stages. A BudgetTimeline summarizes a block of
// lanes: one entry per distinct time at which a lane opens or closes a
// counted span, holding that lane's state just before and just after the
// instant, in time order. Building one reads only its own lanes, so the
// partitions of a run build theirs concurrently; sweep_time_budget() then
// merges the blocks' timelines and walks them once. The segments it sums
// are the gaps between consecutive distinct edge times, in time order,
// whatever the blocks — so the result is bitwise independent of how the
// lanes were split.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hetscale::obs {

class SpanStore;

struct TimeBudget {
  double compute_s = 0.0;
  double comm_s = 0.0;
  double sequential_s = 0.0;
  double fault_s = 0.0;
  double residual_s = 0.0;
  double elapsed_s = 0.0;

  double total() const {
    return compute_s + comm_s + sequential_s + fault_s + residual_s;
  }

  /// Measured sequential time t0 of Theorem 1 (serialized computation).
  double measured_t0() const { return sequential_s; }
  /// Measured parallel overhead To (everything but computation).
  double measured_to() const { return comm_s + fault_s + residual_s; }

  TimeBudget& operator+=(const TimeBudget& other);

  auto operator<=>(const TimeBudget&) const = default;
};

/// The budget-relevant edges of a block of lanes, in time order.
class BudgetTimeline {
 public:
  /// One lane's edges at one instant. States are 0 idle, 1 comm,
  /// 2 compute, 3 fault. Entries whose state does not change still split
  /// the sweep's segments, so they are kept.
  struct Entry {
    double time;
    std::uint8_t before;
    std::uint8_t after;
  };

  BudgetTimeline() = default;

  /// The timeline of lanes [first, last) of `store`: its closed spans of a
  /// counted category, clipped below at 0 (the clip at the run's end waits
  /// for the sweep, since a partition finishes before the elapsed time is
  /// known). Reads only those lanes.
  static BudgetTimeline of_lanes(const SpanStore& store, int first, int last);

  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

/// Classify [0, elapsed] against the time-ordered merge of `timelines`,
/// e.g. one per contiguous block of lanes.
TimeBudget sweep_time_budget(const std::vector<BudgetTimeline>& timelines,
                             double elapsed);

/// Classify [0, elapsed] against the closed spans in `store`: the sweep of
/// one timeline over all lanes.
TimeBudget compute_time_budget(const SpanStore& store, double elapsed);

}  // namespace hetscale::obs
