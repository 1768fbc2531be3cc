// Zero-overhead guard: with observability disabled (no ambient profiler, no
// tracing, no bound telemetry) the observatory hooks must be inert — no
// recorder exists for them to feed, virtual results are bit-identical to a
// profiled run, and the scheduler's delay fast path never even reaches the
// instrumented ladder queue.
#include <gtest/gtest.h>

#include <memory>

#include "hetscale/des/scheduler.hpp"
#include "hetscale/des/telemetry.hpp"
#include "hetscale/obs/profiler.hpp"
#include "hetscale/vmpi/machine.hpp"
#include "test_cluster.hpp"

namespace hetscale::vmpi {
namespace {

using des::Task;

net::NetworkParams fast_params() {
  net::NetworkParams p;
  p.remote = {1e-4, 1e7};
  p.per_message_overhead_s = 1e-5;
  return p;
}

Machine::Program ping_pong(int rounds) {
  return [rounds](Comm& comm) -> Task<void> {
    for (int i = 0; i < rounds; ++i) {
      if (comm.rank() == 0) {
        co_await comm.send(1, i, 256.0, {});
        co_await comm.recv(1, i);
      } else {
        co_await comm.recv(0, i);
        co_await comm.send(0, i, 256.0, {});
      }
    }
  };
}

TEST(ZeroOverhead, NoRecorderExistsWithoutProfiler) {
  // Outside a ProfilerScope nothing is wired up: every observatory hook
  // sits behind a tracer null check, so there is no per-message work at
  // all — the CommMatrix recorder does not even exist.
  auto machine = Machine::shared_bus(test_cluster(2), fast_params());
  EXPECT_EQ(machine.profiler(), nullptr);
  EXPECT_EQ(machine.tracer(), nullptr);
  machine.run(ping_pong(50));
  EXPECT_EQ(machine.tracer(), nullptr);
}

TEST(ZeroOverhead, VirtualResultsIdenticalWithAndWithoutProfiling) {
  // The hooks only *observe*: enabling the full observatory must not move
  // the virtual clock or the network accounting by a single bit.
  auto plain = Machine::shared_bus(test_cluster(2), fast_params());
  const auto without = plain.run(ping_pong(100));

  obs::Profiler profiler;
  obs::ProfilerScope scope(profiler);
  auto traced = Machine::shared_bus(test_cluster(2), fast_params());
  ASSERT_NE(traced.tracer(), nullptr);
  const auto with = traced.run(ping_pong(100));

  EXPECT_EQ(without.elapsed, with.elapsed);
  EXPECT_EQ(without.network.messages, with.network.messages);
  EXPECT_EQ(without.network.bytes, with.network.bytes);
  ASSERT_EQ(without.ranks.size(), with.ranks.size());
  for (std::size_t r = 0; r < without.ranks.size(); ++r) {
    EXPECT_EQ(without.ranks[r].finish, with.ranks[r].finish);
    EXPECT_EQ(without.ranks[r].comm_s, with.ranks[r].comm_s);
  }
  // And the traced run actually observed the traffic.
  EXPECT_EQ(traced.tracer()->comm().total_messages(),
            without.network.messages);
}

TEST(ZeroOverhead, PureDelayLoopNeverReachesTheLadder) {
  // The delay-event throughput path is the scheduler's front slot; even
  // with telemetry bound, a schedule-one/pop-one workload must record zero
  // ladder traffic — the instrumented queue is simply never involved.
  des::Scheduler scheduler;
  des::QueueTelemetry telemetry;
  scheduler.bind_telemetry(&telemetry);
  auto loop = [](des::Scheduler& s) -> Task<void> {
    for (int i = 0; i < 1000; ++i) co_await s.delay(1e-3);
  };
  scheduler.spawn(loop(scheduler));
  scheduler.run();
  EXPECT_GE(scheduler.events_processed(), 1000u);
  EXPECT_EQ(telemetry.pushes, 0u);
  EXPECT_EQ(telemetry.pops, 0u);
  EXPECT_EQ(telemetry.rebuilds, 0u);
  EXPECT_TRUE(telemetry.occupancy.empty());
}

TEST(ZeroOverhead, UnboundTelemetryStaysUntouchedByOverlapTraffic) {
  // Overlapping actors exercise the ladder; with no telemetry bound (the
  // default) the counters of a free-standing block must stay zero.
  des::QueueTelemetry telemetry;
  des::Scheduler scheduler;
  auto actor = [](des::Scheduler& s, double dt) -> Task<void> {
    for (int i = 0; i < 200; ++i) co_await s.delay(dt);
  };
  scheduler.spawn(actor(scheduler, 1e-3));
  scheduler.spawn(actor(scheduler, 1.7e-3));
  scheduler.run();
  EXPECT_EQ(telemetry.pushes, 0u);
  EXPECT_EQ(telemetry.pops, 0u);
}

TEST(ZeroOverhead, BoundTelemetryCountsExactlyTheOverlapTraffic) {
  auto run_with = [](des::QueueTelemetry* telemetry) {
    des::Scheduler scheduler;
    if (telemetry != nullptr) scheduler.bind_telemetry(telemetry);
    auto actor = [](des::Scheduler& s, double dt) -> Task<void> {
      for (int i = 0; i < 200; ++i) co_await s.delay(dt);
    };
    scheduler.spawn(actor(scheduler, 1e-3));
    scheduler.spawn(actor(scheduler, 1.7e-3));
    scheduler.run();
    return scheduler.events_processed();
  };
  des::QueueTelemetry telemetry;
  const auto events_instrumented = run_with(&telemetry);
  const auto events_plain = run_with(nullptr);
  // Telemetry must not change what runs: same event count either way.
  EXPECT_EQ(events_instrumented, events_plain);
  // Two interleaved actors spill into the ladder; everything pushed must
  // eventually be popped (the run drained).
  EXPECT_GT(telemetry.pushes, 0u);
  EXPECT_EQ(telemetry.pushes, telemetry.pops);
}

}  // namespace
}  // namespace hetscale::vmpi
