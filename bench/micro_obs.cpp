// Micro-benchmarks of the communication observatory's hot paths.
//
// BM_CommMatrixRecord times the per-message cost the vmpi send/recv hooks
// pay when tracing is ON — one cell lookup and update per record — over an
// all-pairs matrix across three phases: 8 ranks (every cell in L1) and 256
// (65280 cells, a working set well past L1).
// BM_CriticalPath times the full backward walk over a synthetic ping-pong
// span DAG of the shape the analyzer sees per run: two lanes, alternating
// compute and recv.wait, one message hop per round.
// BM_TimeBudget and BM_CriticalPathManyLanes time profile assembly over a
// store shaped like a profiled large-p GE rung: hundreds of lanes, each
// round a compute span, then a barrier with a send.wait and a recv.wait
// nested beneath it, and one message per lane per round. Both are linear
// in spans; items are spans.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <vector>

#include "hetscale/obs/budget.hpp"
#include "hetscale/obs/comm_matrix.hpp"
#include "hetscale/obs/critical_path.hpp"
#include "hetscale/obs/span.hpp"

namespace {

using namespace hetscale;

void BM_CommMatrixRecord(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  obs::CommMatrix warm;
  for (auto _ : state) {
    // Cycle through all (src, dst) pairs and three phases, the mix a
    // collective-heavy run produces; the matrix stays warm across
    // iterations like it does across a run.
    int phase = 0;
    for (int src = 0; src < ranks; ++src) {
      for (int dst = 0; dst < ranks; ++dst) {
        if (src == dst) continue;
        warm.record_send(src, dst,
                         static_cast<obs::CommPhase>(phase % 3), 1024.0);
        ++phase;
      }
    }
    benchmark::DoNotOptimize(warm.total_messages());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ranks) * (ranks - 1));
}
BENCHMARK(BM_CommMatrixRecord)->Arg(8)->Arg(256);

void BM_CriticalPath(benchmark::State& state) {
  const int rounds = static_cast<int>(state.range(0));
  obs::SpanStore store;
  const int compute = store.intern("compute");
  const int recv = store.intern("recv.wait");
  obs::MessageLanes messages(2);
  double t = 0.0;
  for (int round = 0; round < rounds; ++round) {
    const int src = round % 2;
    const int dst = 1 - src;
    store.record(src, compute, t, t + 0.1);
    store.record(dst, recv, t, t + 0.2, /*peer=*/src, /*tag=*/1);
    messages[static_cast<std::size_t>(src)].push_back(
        obs::PathMessage{src, dst, 1, 8.0, t + 0.1, t + 0.2});
    t += 0.2;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::critical_path(store, messages, t));
  }
  state.SetItemsProcessed(state.iterations() * rounds);
}
BENCHMARK(BM_CriticalPath)->Arg(256)->Arg(2048);

/// A many-lane run: every round each lane computes for a lane-dependent
/// time, then inside a barrier sends to the next lane and receives from the
/// previous one; the barrier closes when the slowest receive is done.
struct ManyLaneRun {
  obs::SpanStore store;
  obs::MessageLanes messages;  ///< per sender
  double elapsed = 0.0;
};

ManyLaneRun many_lane_run(int lanes, int rounds) {
  ManyLaneRun run;
  obs::SpanStore& store = run.store;
  const int compute = store.intern("compute");
  const int send = store.intern("send.wait");
  const int recv = store.intern("recv.wait");
  const int barrier = store.intern("barrier");
  store.presize_lanes(lanes);
  run.messages.resize(static_cast<std::size_t>(lanes));
  const double send_s = 2e-6;
  const double wire_s = 5e-6;
  double t = 0.0;  // every lane leaves the previous barrier together
  for (int round = 0; round < rounds; ++round) {
    std::vector<double> sent(static_cast<std::size_t>(lanes));
    for (int lane = 0; lane < lanes; ++lane) {
      sent[static_cast<std::size_t>(lane)] =
          t + 1e-3 * (1 + (lane * 7 + round) % 5);
    }
    double release = t;
    std::vector<std::size_t> handles;
    for (int lane = 0; lane < lanes; ++lane) {
      const double start = sent[static_cast<std::size_t>(lane)];
      const int next = (lane + 1) % lanes;
      const int prev = (lane + lanes - 1) % lanes;
      const double arrive =
          sent[static_cast<std::size_t>(prev)] + send_s + wire_s;
      const double done = std::max(start + send_s, arrive);
      store.record(lane, compute, t, start);
      handles.push_back(store.open(lane, barrier, start));
      store.record(lane, send, start, start + send_s, next, round, 1024.0);
      store.record(lane, recv, start + send_s, done, prev, round, 1024.0);
      run.messages[static_cast<std::size_t>(lane)].push_back(
          obs::PathMessage{lane, next, round, 1024.0, start + send_s,
                           start + send_s + wire_s});
      release = std::max(release, done);
    }
    for (const std::size_t handle : handles) store.close(handle, release);
    t = release;
  }
  run.elapsed = t;
  return run;
}

void BM_TimeBudget(benchmark::State& state) {
  const ManyLaneRun run = many_lane_run(static_cast<int>(state.range(0)), 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(obs::compute_time_budget(run.store, run.elapsed));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(run.store.size()));
}
BENCHMARK(BM_TimeBudget)->Arg(256)->Arg(1024);

void BM_CriticalPathManyLanes(benchmark::State& state) {
  const ManyLaneRun run = many_lane_run(static_cast<int>(state.range(0)), 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        obs::critical_path(run.store, run.messages, run.elapsed));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(run.store.size()));
}
BENCHMARK(BM_CriticalPathManyLanes)->Arg(256)->Arg(1024);

}  // namespace
