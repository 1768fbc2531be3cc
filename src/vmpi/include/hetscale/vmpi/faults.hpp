// The runtime's fault-injection seam.
//
// vmpi knows nothing about fault *plans*; it only consults this interface
// at the two places where degradation can act on a rank's virtual time:
// compute calls (slowdowns, checkpoint cost, crash rework) and message
// transmissions (transient loss with sender-side retry). The fault library
// implements the interface (fault::Injector); a Machine with no hooks
// attached behaves exactly as before — the healthy path stays hook-free.
//
// Determinism contract: an implementation may keep per-rank state (message
// counters, checkpoint schedules), because within one simulation each
// rank's coroutine runs single-threaded and issues its compute/send calls
// in a deterministic order. It must not share mutable state across ranks
// — a partitioned machine calls the hooks for different ranks from
// different threads — nor across Machine instances: concurrent
// simulations on a Runner each attach their own hooks.
#pragma once

#include "hetscale/des/scheduler.hpp"
#include "hetscale/obs/profiler.hpp"

namespace hetscale::vmpi {

/// Retry schedule of one logical message (drawn per send).
struct SendFaultPlan {
  int attempts = 1;            ///< transmissions until one gets through
  double retry_timeout_s = 0;  ///< wait before the first retransmission
  double backoff = 1.0;        ///< timeout multiplier per further retry
};

class FaultHooks {
 public:
  virtual ~FaultHooks() = default;

  /// The virtual end time of a compute that starts at `start` and would
  /// take `healthy_seconds` on the healthy machine. Implementations charge
  /// slowdowns, checkpoint costs crossed by the interval, and crash
  /// rework here; the result must be >= start + healthy_seconds' degraded
  /// equivalent and monotone in `start`.
  virtual des::SimTime compute_end(int rank, des::SimTime start,
                                   double healthy_seconds) = 0;

  /// The retry schedule for `rank`'s next message. Called once per logical
  /// send (blocking or not), advancing the rank's message counter.
  virtual SendFaultPlan send_faults(int rank) = 0;

  /// Time `rank`'s message spent in timeouts/retransmissions beyond the
  /// first attempt (for the fault-overhead decomposition).
  virtual void record_retry_wait(int rank, double seconds) = 0;

  /// A profiling Machine offers its span store so the hooks can record
  /// `checkpoint` / `fault.rework` spans at the instants they charge time,
  /// each under the lane of the rank charged. Names must be interned here,
  /// before the run. Optional: the default keeps fault models span-free.
  virtual void bind_span_sink(obs::SpanStore* /*spans*/) {}

  /// Summed charges for the profiling report. Optional.
  virtual obs::FaultProfileTotals fault_profile() const { return {}; }
};

}  // namespace hetscale::vmpi
