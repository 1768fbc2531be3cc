#include "hetscale/des/parallel.hpp"

#include <algorithm>
#include <limits>
#include <thread>

#include "hetscale/support/error.hpp"

namespace hetscale::des {

void SpinBarrier::arrive_and_wait() {
  const unsigned generation = generation_.load(std::memory_order_relaxed);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == participants_) {
    // Last arriver: reset the count for the next round, then release the
    // generation. The reset is safe — every participant incremented before
    // this point, and none can re-arrive until it observes the new
    // generation (which is published after the reset).
    arrived_.store(0, std::memory_order_relaxed);
    generation_.store(generation + 1, std::memory_order_release);
    return;
  }
  int spins = 0;
  while (generation_.load(std::memory_order_acquire) == generation) {
    if (++spins >= 1024) {
      std::this_thread::yield();
      spins = 0;
    }
  }
}

std::vector<std::exception_ptr> run_conservative(
    const std::vector<Scheduler*>& partitions, double lookahead_s,
    const PartitionHooks& hooks) {
  const int count = static_cast<int>(partitions.size());
  HETSCALE_REQUIRE(count >= 1, "need at least one partition");
  HETSCALE_REQUIRE(count == 1 || lookahead_s > 0.0,
                   "conservative windows need a positive lookahead");

  constexpr SimTime kIdle = std::numeric_limits<SimTime>::infinity();
  // The lookahead holds in exact arithmetic, but an arrival is a few
  // rounded additions past its departure: shave a few ulps of the clock off
  // every window end so no message lands inside the window it was sent in.
  constexpr double kRoundingMargin =
      16 * std::numeric_limits<double>::epsilon();
  SpinBarrier barrier(count);
  std::vector<SimTime> next_time;  // sized once several partitions run
  std::vector<std::exception_ptr> errors(partitions.size());
  std::atomic<bool> failed{false};

  const auto partition_loop = [&](int p) {
    Scheduler& scheduler = *partitions[static_cast<std::size_t>(p)];
    std::exception_ptr& error = errors[static_cast<std::size_t>(p)];
    // A failed segment must not unwind past a barrier — the two-barrier
    // round would desynchronize and strand the other threads — so every
    // segment traps locally. A failed partition keeps the rendezvous
    // rhythm, publishing "idle" until the round where everyone observes
    // the failure flag and exits together.
    const auto guarded = [&](const auto& segment) {
      if (error) return;
      try {
        segment();
      } catch (...) {
        error = std::current_exception();
        failed.store(true, std::memory_order_release);
      }
    };

    guarded([&] {
      if (hooks.bootstrap) hooks.bootstrap(p);
    });
    if (count == 1) guarded([&] { scheduler.run_window(kIdle); });
    while (count > 1) {
      // Top of the round: all partitions have finished the previous window
      // (or just bootstrapped) — cross-partition handoffs are complete and
      // safe to deliver. The failure check sits here so every thread exits
      // at the same rendezvous.
      barrier.arrive_and_wait();
      if (failed.load(std::memory_order_acquire)) break;
      guarded([&] {
        if (hooks.deliver) hooks.deliver(p);
      });
      next_time[static_cast<std::size_t>(p)] =
          error ? kIdle : scheduler.next_event_time();
      barrier.arrive_and_wait();
      // Every thread folds the same published times, so all agree on the
      // window bound (and on quiescence) without a leader.
      SimTime horizon = kIdle;
      for (const SimTime t : next_time) horizon = std::min(horizon, t);
      if (horizon == kIdle) break;
      const SimTime end = (horizon + lookahead_s) * (1.0 - kRoundingMargin);
      guarded([&] {
        HETSCALE_CHECK(end > horizon, "clock too large for the lookahead");
        scheduler.run_window(end);
      });
    }
    // Per-partition liveness/exception check, even after a failure
    // elsewhere: the caller prefers real exceptions over the secondary
    // deadlocks an aborted run leaves behind, and checking unconditionally
    // keeps the recorded error set deterministic.
    guarded([&] { scheduler.check_roots(); });
    if (hooks.finish) hooks.finish(p);
  };

  if (count == 1) {
    partition_loop(0);  // inline: no thread, no barrier
    return errors;
  }
  next_time.assign(partitions.size(), 0.0);
  std::vector<std::thread> threads;
  threads.reserve(partitions.size());
  for (int p = 0; p < count; ++p) {
    threads.emplace_back(partition_loop, p);
  }
  for (std::thread& thread : threads) thread.join();
  return errors;
}

}  // namespace hetscale::des
