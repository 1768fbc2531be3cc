// QueueTelemetry — optional counters and an occupancy timeline for the
// ladder event queue.
//
// The queue holds a raw pointer to one of these (null by default), so the
// instrumented increments compile to a tested-and-skipped branch when
// telemetry is unbound — the scheduler's front-slot fast path never
// touches the ladder at all, and the overlap path pays one predictable
// branch. A profiled vmpi::Machine binds one block per partition scheduler
// and sums them into its RunProfile after the run.
//
// Times are plain doubles (= des::SimTime) so the struct stays header-only
// and dependency-free for the obs layer to mirror.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hetscale::des {

struct QueueTelemetry {
  std::uint64_t pushes = 0;       ///< events pushed into the ladder
  std::uint64_t pops = 0;         ///< events popped from the ladder
  std::uint64_t far_inserts = 0;  ///< pushes that landed in the far list
  std::uint64_t rebuilds = 0;     ///< epoch rebuilds (far list re-bucketed)

  /// One occupancy sample: pending events at a virtual time. Sampled at
  /// every epoch rebuild — the instants the queue re-examines its whole
  /// population anyway — so sampling adds no per-event work.
  struct Sample {
    double time = 0.0;
    std::uint64_t depth = 0;
  };
  std::vector<Sample> occupancy;

  /// Rebuild instants that would have been sampled but fell past the
  /// kMaxSamples cap. A truncated timeline is still useful, but only when
  /// the truncation is visible — analyze reports this count instead of
  /// pretending the run ended where the samples do.
  std::uint64_t samples_dropped = 0;

  /// Occupancy samples are capped; past this the counters keep counting
  /// but the timeline stops growing (long runs stay bounded).
  static constexpr std::size_t kMaxSamples = 4096;
};

}  // namespace hetscale::des
