// FaultPlan — a deterministic schedule of degradation and failure events.
//
// A plan is fixed *before* the simulation starts: every event is pinned to
// the virtual timeline (or, for message loss, to a counter-keyed draw), so
// a run under a plan is as bit-reproducible as a healthy run — across
// repetitions, platforms, and --jobs settings. Plans are either assembled
// by hand (tests, the CLI `inject` command) or generated from a seed with
// FaultPlan::generate.
//
// Event classes, mirroring how real heterogeneous clusters degrade:
//   * SlowdownEvent   — a rank's compute rate is scaled over an interval
//                       (thermal throttling, a co-scheduled job, a straggler);
//   * LinkFaultEvent  — the inter-node network loses bandwidth and gains
//                       latency over an interval (applied by DegradedNetwork);
//   * CrashEvent      — a rank fails at a virtual time and restarts from its
//                       last checkpoint (see CheckpointPolicy);
//   * LossModel       — each transmission is independently dropped with a
//                       fixed probability; vmpi::Comm retries after a timeout
//                       with exponential backoff.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hetscale/des/scheduler.hpp"
#include "hetscale/fault/prng.hpp"

namespace hetscale::fault {

/// A rank computes at `factor` times its healthy rate during [start, end).
struct SlowdownEvent {
  int rank = 0;
  des::SimTime start = 0.0;
  des::SimTime end = 0.0;
  double factor = 1.0;  ///< in (0, 1]: 0.5 means half speed
};

/// The inter-node network is degraded during [start, end). Local
/// (intra-node) transfers are unaffected.
struct LinkFaultEvent {
  des::SimTime start = 0.0;
  des::SimTime end = 0.0;
  double bandwidth_factor = 1.0;   ///< in (0, 1]: effective B = factor * B
  double extra_latency_s = 0.0;    ///< added end-to-end propagation delay
};

/// Rank `rank` crashes at virtual time `at` and re-executes everything
/// since its last checkpoint (plus a restart delay).
struct CrashEvent {
  int rank = 0;
  des::SimTime at = 0.0;
};

/// Transient message loss with sender-side retry.
struct LossModel {
  double drop_probability = 0.0;  ///< per-transmission, in [0, 1)
  double retry_timeout_s = 1e-3;  ///< wait before the first retransmission
  double backoff = 2.0;           ///< timeout multiplier per further retry
  int max_attempts = 16;          ///< hard cap (then the send goes through)

  bool enabled() const { return drop_probability > 0.0; }
};

/// Periodic checkpointing, the price of crash recovery. Every `interval_s`
/// of a rank's virtual time, the rank is charged a checkpoint: its state
/// (`bytes`) written at `write_bandwidth_Bps` plus `flops` of serialization
/// work at the rank's healthy rate — checkpoint cost is compute + comm, as
/// on a real machine. interval_s <= 0 disables checkpointing (a crash then
/// rolls back to the start of the run).
struct CheckpointPolicy {
  des::SimTime interval_s = 0.0;
  double bytes = 0.0;
  double write_bandwidth_Bps = 12.5e6;
  double flops = 0.0;

  bool enabled() const { return interval_s > 0.0; }
};

/// Knobs for FaultPlan::generate — how faulty a generated plan is.
struct PlanSpec {
  /// Each rank is independently a straggler with this probability; a
  /// straggler alternates healthy and degraded phases of `slowdown_period_s`
  /// (degraded for `slowdown_duty` of each period, at `slowdown_factor`).
  double slowdown_probability = 0.0;
  double slowdown_factor = 0.5;
  double slowdown_duty = 0.5;
  des::SimTime slowdown_period_s = 2.0;

  /// The network alternates healthy and degraded windows of
  /// `link_period_s` (degraded for `link_duty` of each period).
  double link_duty = 0.0;
  des::SimTime link_period_s = 2.0;
  double link_bandwidth_factor = 0.5;
  double link_extra_latency_s = 0.0;

  /// Per-rank crashes as a Poisson process with this rate (crashes per
  /// second of virtual time); 0 disables crashes.
  double crash_rate_per_s = 0.0;
  des::SimTime restart_delay_s = 1.0;

  LossModel loss{};
  CheckpointPolicy checkpoint{};

  /// Events are generated on [0, horizon_s); the system is healthy beyond.
  des::SimTime horizon_s = 1e4;
};

/// The most events (slowdown windows, link windows and crashes) a generated
/// plan holds. A plan is built in memory before the run starts, so
/// FaultPlan::generate rejects a spec that asks for more.
inline constexpr std::size_t kMaxPlanEvents = 1'000'000;

class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  /// Expand a seed into a concrete event schedule for `ranks` ranks.
  /// Deterministic: same (seed, spec, ranks) -> identical plan, and every
  /// draw is counter-keyed, so plans for different rank counts share the
  /// events of their common ranks. Throws PreconditionError, before adding
  /// it, on the event that would exceed kMaxPlanEvents.
  static FaultPlan generate(std::uint64_t seed, const PlanSpec& spec,
                            int ranks);

  std::uint64_t seed() const { return seed_; }
  CounterRng rng() const { return CounterRng(seed_); }

  /// Builders (validated; intervals may be appended in any order).
  FaultPlan& add_slowdown(SlowdownEvent event);
  FaultPlan& add_link_fault(LinkFaultEvent event);
  FaultPlan& add_crash(CrashEvent event);
  FaultPlan& set_loss(LossModel loss);
  FaultPlan& set_checkpoint(CheckpointPolicy policy);
  FaultPlan& set_restart_delay(des::SimTime delay_s);

  const std::vector<SlowdownEvent>& slowdowns() const { return slowdowns_; }
  const std::vector<LinkFaultEvent>& link_faults() const {
    return link_faults_;
  }
  const std::vector<CrashEvent>& crashes() const { return crashes_; }
  const LossModel& loss() const { return loss_; }
  const CheckpointPolicy& checkpoint() const { return checkpoint_; }
  des::SimTime restart_delay_s() const { return restart_delay_; }

  bool empty() const {
    return slowdowns_.empty() && link_faults_.empty() && crashes_.empty() &&
           !loss_.enabled() && !checkpoint_.enabled();
  }

  /// The compute-rate factor of `rank` at virtual time `t` (product of the
  /// active slowdown events; 1.0 when healthy).
  double slowdown_factor(int rank, des::SimTime t) const;

  /// The combined link state at virtual time `t`.
  struct LinkState {
    double bandwidth_factor = 1.0;
    double extra_latency_s = 0.0;
  };
  LinkState link_state(des::SimTime t) const;

  /// Sorted crash times of `rank`.
  std::vector<des::SimTime> crash_times(int rank) const;

  /// One line for harness headers, e.g.
  /// "seed=7: 3 slowdowns, 2 link faults, loss p=0.05, crashes=1".
  std::string summary() const;

 private:
  std::uint64_t seed_ = 0;
  std::vector<SlowdownEvent> slowdowns_;
  std::vector<LinkFaultEvent> link_faults_;
  std::vector<CrashEvent> crashes_;
  LossModel loss_{};
  CheckpointPolicy checkpoint_{};
  des::SimTime restart_delay_ = 1.0;
};

}  // namespace hetscale::fault
