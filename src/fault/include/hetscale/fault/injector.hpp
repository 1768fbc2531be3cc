// Injector — executes a FaultPlan against one simulation.
//
// One Injector serves one Machine run (machines are single-shot, and so is
// the injector: per-rank checkpoint clocks, crash cursors, and message
// counters are consumed as the simulation advances). Attach with
// Machine::attach_fault_hooks(injector) before run(); the injector must
// outlive the run, and its accounting is read after the run completes.
//
// What it charges, and where (the determinism contract is that all of it
// is a pure function of the plan and the rank's own call sequence):
//   * slowdowns    — compute calls integrate the rank's piecewise-constant
//                    rate factor: a call needing w healthy seconds advances
//                    the clock until ∫ factor dt == w;
//   * checkpoints  — when a compute call crosses the rank's next scheduled
//                    checkpoint time, the checkpoint cost (state write +
//                    serialization flops at the rank's healthy rate) is
//                    inserted into the timeline at that point;
//   * crashes      — when a compute call crosses a crash time, the rank
//                    pays the restart delay plus re-execution of everything
//                    since its last checkpoint (virtual time elapsed since
//                    the checkpoint — a conservative rework model that
//                    counts waiting in the lost window as lost work). A
//                    crash scheduled while a rank is blocked in recv
//                    manifests at its next compute call.
//   * retries      — each logical send draws its transmission count from
//                    the counter-keyed PRNG (geometric in the drop
//                    probability, capped at max_attempts); lost attempts
//                    really occupy the network and the sender waits out the
//                    timeout-with-backoff schedule between attempts.
#pragma once

#include <cstdint>
#include <vector>

#include "hetscale/fault/plan.hpp"
#include "hetscale/vmpi/faults.hpp"

namespace hetscale::fault {

/// Per-rank accounting of injected fault time (seconds of virtual time
/// added relative to the healthy schedule of the same call sequence).
struct RankFaultStats {
  double slowdown_s = 0.0;    ///< extra compute time from rate scaling
  double checkpoint_s = 0.0;  ///< checkpoint costs charged
  double rework_s = 0.0;      ///< crash rollback + restart delays
  double retry_s = 0.0;       ///< timeout/backoff waits on lossy sends
  std::uint64_t checkpoints = 0;
  std::uint64_t crashes = 0;
  std::uint64_t retries = 0;  ///< retransmissions (attempts beyond first)

  double total_s() const {
    return slowdown_s + checkpoint_s + rework_s + retry_s;
  }
};

class Injector final : public vmpi::FaultHooks {
 public:
  /// `healthy_rates` are the ranks' healthy compute rates (flop/s), used to
  /// price checkpoint serialization work.
  Injector(const FaultPlan& plan, std::vector<double> healthy_rates);

  // vmpi::FaultHooks:
  des::SimTime compute_end(int rank, des::SimTime start,
                           double healthy_seconds) override;
  vmpi::SendFaultPlan send_faults(int rank) override;
  void record_retry_wait(int rank, double seconds) override;
  void bind_span_sink(obs::SpanStore* spans) override;
  obs::FaultProfileTotals fault_profile() const override;

  const RankFaultStats& rank_stats(int rank) const;
  int ranks() const { return static_cast<int>(states_.size()); }

  /// Sum over ranks (the decomposition's aggregate view).
  RankFaultStats totals() const;

  /// Max over ranks of total_s() — a lower bound on the elapsed-time
  /// impact, in the same critical-path sense as RunResult::overhead_s.
  double critical_path_fault_s() const;

 private:
  struct RankState {
    std::vector<SlowdownEvent> slowdowns;  ///< this rank's, sorted by start
    std::vector<des::SimTime> crashes;     ///< sorted; consumed front to back
    std::size_t next_crash = 0;
    des::SimTime next_checkpoint = 0.0;
    des::SimTime last_checkpoint = 0.0;
    double checkpoint_cost_s = 0.0;
    std::uint64_t messages = 0;  ///< counter key for loss draws
    RankFaultStats stats;
  };

  /// The rank's rate factor at time t and the end of the piece it lies in.
  double factor_at(const RankState& state, des::SimTime t,
                   des::SimTime* piece_end) const;

  const FaultPlan* plan_;
  CounterRng rng_;
  std::vector<RankState> states_;
  obs::SpanStore* spans_ = nullptr;  ///< profiling sink; null when off
  int checkpoint_span_id_ = -1;
  int rework_span_id_ = -1;
};

}  // namespace hetscale::fault
