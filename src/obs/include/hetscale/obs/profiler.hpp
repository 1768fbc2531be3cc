// Profiler — accumulates one RunProfile per simulated machine run and
// folds them into a deterministic report.
//
// Determinism contract: runs may be appended from any worker thread in any
// order (the experiment Runner schedules simulations concurrently), but
// report() sorts a copy of the runs before folding, so every exported
// total is bitwise identical at --jobs 1 and --jobs N. Wall-clock numbers
// cannot be made stable and are quarantined in WallStats, which exporters
// omit unless explicitly asked for.
//
// The ambient profiler (current()/ProfilerScope) is how instrumentation
// reaches the simulation layers without threading a pointer through every
// constructor: vmpi::Machine picks up obs::current() when it is built and
// publishes its RunProfile when run() finishes.
#pragma once

#include <compare>
#include <cstdint>
#include <mutex>
#include <vector>

#include "hetscale/obs/budget.hpp"
#include "hetscale/obs/comm_matrix.hpp"

namespace hetscale::obs {

/// Per-link on-wire totals, keyed by the sending node (its injection port
/// on a switched fabric; its share of the medium on a shared bus).
struct LinkProfile {
  int node = 0;
  double bytes = 0.0;
  double wire_s = 0.0;
  double stall_s = 0.0;

  auto operator<=>(const LinkProfile&) const = default;
};

/// Injected-fault time charged to a run, by cause.
struct FaultProfileTotals {
  double slowdown_s = 0.0;
  double checkpoint_s = 0.0;
  double rework_s = 0.0;
  double retry_s = 0.0;
  std::uint64_t checkpoints = 0;
  std::uint64_t crashes = 0;
  std::uint64_t retries = 0;

  double total_s() const {
    return slowdown_s + checkpoint_s + rework_s + retry_s;
  }

  auto operator<=>(const FaultProfileTotals&) const = default;
};

/// Category totals of one run's critical path (obs/critical_path.hpp
/// computes them; the per-segment detail stays with the analyzer — the
/// profile carries just the fold-friendly sums).
struct CriticalPathSummary {
  double compute_s = 0.0;
  double comm_s = 0.0;
  double wait_s = 0.0;
  double fault_s = 0.0;

  double total_s() const { return compute_s + comm_s + wait_s + fault_s; }

  auto operator<=>(const CriticalPathSummary&) const = default;
};

/// Ladder-queue telemetry totals (mirrors des::QueueTelemetry — the obs
/// layer sits below des in the build, so it keeps its own shape).
struct DesQueueStats {
  std::uint64_t pushes = 0;
  std::uint64_t pops = 0;
  std::uint64_t far_inserts = 0;
  std::uint64_t rebuilds = 0;
  /// Occupancy samples discarded once the telemetry cap was hit — nonzero
  /// means the occupancy timeline below is a truncated view.
  std::uint64_t samples_dropped = 0;

  /// Occupancy timeline: (virtual time, pending events) at every ladder
  /// epoch rebuild, capped at the producer side.
  struct Sample {
    double time = 0.0;
    std::uint64_t depth = 0;

    auto operator<=>(const Sample&) const = default;
  };
  std::vector<Sample> occupancy;

  auto operator<=>(const DesQueueStats&) const = default;
};

/// Everything one machine run contributes to the report. All values are
/// virtual-time or event counts — deterministic by construction. The
/// defaulted ordering is what report() sorts by; no field may be NaN.
struct RunProfile {
  double elapsed_s = 0.0;
  TimeBudget budget;

  // vmpi rank totals
  double compute_s = 0.0;
  double comm_s = 0.0;
  std::uint64_t messages = 0;
  double bytes = 0.0;
  std::uint64_t retries = 0;
  double backoff_s = 0.0;

  // des. The engine telemetry — des_queue_depth_max, frame_live_peak and
  // des_queue below — sums one block per partition scheduler, so it is the
  // only content that depends on the machine's partition count.
  std::uint64_t des_events = 0;
  std::uint64_t des_queue_depth_max = 0;
  std::uint64_t frame_live_peak = 0;  ///< coroutine-frame high-water mark

  // net (on-wire truth, from the innermost network model)
  double wire_s = 0.0;
  double contention_s = 0.0;
  std::vector<LinkProfile> links;

  // fault injection
  FaultProfileTotals fault;

  // communication observatory: per-(src, dst, phase) traffic cells in
  // canonical order, the run's critical-path attribution, and the ladder
  // queue's telemetry (empty/zero when the machine ran unprofiled).
  std::vector<CommCell> comm_cells;
  CriticalPathSummary critical_path;
  DesQueueStats des_queue;

  auto operator<=>(const RunProfile&) const = default;
};

/// Host-side, non-deterministic observations (wall clock, worker
/// scheduling). Never part of byte-stable exports.
struct WallStats {
  double wall_s = 0.0;         ///< wall time spent inside instrumented work
  double worker_busy_s = 0.0;  ///< summed per-lane busy wall time
  std::uint64_t batches = 0;
  std::uint64_t tasks = 0;
  std::uint64_t steals = 0;  ///< Chase-Lev deque steals across batches
  int jobs = 0;

  bool empty() const { return batches == 0 && tasks == 0 && wall_s == 0.0; }
};

struct ReportOptions;
class Report;

class Profiler {
 public:
  /// Append one finished run. Thread-safe.
  void add_run(RunProfile run);

  /// Record host-side batch execution (volatile; Runner calls this).
  /// Thread-safe.
  void record_batch(int jobs, std::uint64_t tasks, double wall_s,
                    double worker_busy_s, std::uint64_t steals = 0);

  std::size_t runs() const;

  /// Copy of the runs, sorted into canonical order for deterministic folds.
  std::vector<RunProfile> sorted_runs() const;

  WallStats wall() const;

  /// Fold the runs into an exportable report (defined in report.cpp).
  Report report(const ReportOptions& options) const;
  Report report() const;

 private:
  mutable std::mutex mutex_;
  std::vector<RunProfile> runs_;
  WallStats wall_;
};

/// The ambient profiler instrumented layers publish to; nullptr when
/// profiling is off (the zero-overhead default).
Profiler* current();

/// Install `profiler` as the ambient profiler for this scope's lifetime.
class ProfilerScope {
 public:
  explicit ProfilerScope(Profiler& profiler);
  ProfilerScope(const ProfilerScope&) = delete;
  ProfilerScope& operator=(const ProfilerScope&) = delete;
  ~ProfilerScope();

 private:
  Profiler* previous_;
};

}  // namespace hetscale::obs
