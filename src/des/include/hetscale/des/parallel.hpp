// Conservative parallel execution of partitioned schedulers.
//
// The sequential Scheduler stays the unit of determinism; this layer runs
// one of them inline (the classic sequential schedule, as one unbounded
// window), or several — one per OS thread — in lockstep windows. Each round:
//
//   1. barrier;
//   2. every partition drains its cross-partition inbox (the `deliver`
//      hook), which may schedule new events, then publishes the time of its
//      next pending event;
//   3. barrier; every thread folds the published times into the global
//      minimum T. If T is +infinity the simulation is quiescent and the
//      loop ends; otherwise every partition runs all events with
//      time < T + lookahead.
//
// Safety rests on the lookahead contract: any event a partition executes at
// time t can only make another partition's state change at t + lookahead or
// later (for the vmpi machine, a message departing at t arrives no earlier
// than t plus the network's per-message overhead and link latency). Events
// inside one window therefore never need to cross partitions mid-window,
// and every partition's event stream is identical to the sequential
// schedule restricted to its ranks — the windows only chunk it.
//
// Determinism: window bounds derive from the global minimum over the same
// event population regardless of how ranks are partitioned, so the window
// sequence — and with it every partition-local execution — is a pure
// function of the model, not of thread timing.
#pragma once

#include <atomic>
#include <exception>
#include <functional>
#include <vector>

#include "hetscale/des/scheduler.hpp"

namespace hetscale::des {

/// A sense-reversing spin barrier for a handful of simulation threads.
/// Windows are short (often a few hundred events), so parking threads in
/// the kernel per round would dominate; spinning with a yield fallback
/// keeps the round-trip in the microsecond range.
class SpinBarrier {
 public:
  explicit SpinBarrier(int participants) : participants_(participants) {}
  SpinBarrier(const SpinBarrier&) = delete;
  SpinBarrier& operator=(const SpinBarrier&) = delete;

  /// Block until all participants have arrived. Full acquire/release
  /// rendezvous: every write made before arriving is visible to every
  /// participant after it returns.
  void arrive_and_wait();

 private:
  const int participants_;
  std::atomic<int> arrived_{0};
  std::atomic<unsigned> generation_{0};
};

/// Hooks the coordinator calls on each partition's own thread.
struct PartitionHooks {
  /// Called once at thread start, before the first window: bind any
  /// thread-local state and spawn this partition's root processes (their
  /// coroutine frames then come from the partition thread's pool).
  std::function<void(int partition)> bootstrap;

  /// Called at the top of every round, after the barrier guaranteed all
  /// partitions finished the previous window: deliver inbound
  /// cross-partition work produced during it. Only this partition's own
  /// scheduler/state may be touched. Never called for a single partition.
  std::function<void(int partition)> deliver;

  /// Called last on the partition's thread, also after a failure, to read
  /// back thread-local state. Must not throw.
  std::function<void(int partition)> finish;
};

/// Run `partitions` to global quiescence: one inline, as a single unbounded
/// window (any `lookahead_s`); several on one thread each, with windows
/// bounded by `lookahead_s > 0` past the global next-event time. Returns one
/// slot per partition holding the exception that stopped it (from the
/// window loop or from Scheduler::check_roots() at quiescence), or null.
/// Any partition failure stops every partition at the next round. If a
/// partition thread cannot be started, no partition runs (no hook is
/// called): the threads already started are joined and the start error
/// (e.g. std::system_error) is rethrown.
std::vector<std::exception_ptr> run_conservative(
    const std::vector<Scheduler*>& partitions, double lookahead_s,
    const PartitionHooks& hooks);

}  // namespace hetscale::des
