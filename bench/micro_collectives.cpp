// Micro-benchmarks of the collective algorithm families at large p: the
// paper-era flat family (CollectiveTuning::legacy_flat()) against the
// logarithmic tree family (the defaults) for bcast, barrier, and reduce at
// 64 / 512 / 2048 ranks.
//
// Two numbers per run:
//   * wall-clock (google-benchmark real_time) — what the simulator pays to
//     execute the collective (a developer tool; the tracked benchmark is
//     `benchmark/run.py`);
//   * sim_s counter — the *simulated* completion time of the collective,
//     where the algorithmic gap lives: flat is Θ(p) rounds, tree Θ(log p),
//     so the flat/tree sim_s ratio at p >= 1024 is the >=5x speedup the
//     large-p engine is built on.
//
// Receive-side software overhead is enabled (NetworkParams::recv_overhead_s,
// off everywhere else): without it, incast is free — the p-1 concurrent
// child->root sends of a flat gather/reduce all land in parallel and the
// flat reduce looks constant-time, which no real NIC + MPI stack delivers.
// With the root charged per matched message, flat reduce shows its true
// Θ(p) root-processing cost against the combining tree's Θ(log p).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "hetscale/machine/cluster.hpp"
#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/net/network.hpp"
#include "hetscale/support/units.hpp"
#include "hetscale/vmpi/machine.hpp"

namespace {

using namespace hetscale;
using des::Task;

machine::Cluster blades(int n) {
  machine::Cluster cluster;
  for (int i = 0; i < n; ++i) {
    cluster.add_node("n" + std::to_string(i),
                     machine::sunwulf::sunblade_spec());
  }
  return cluster;
}

constexpr int kRounds = 10;

/// One timed run's outputs: the simulated completion time plus the number
/// of host-side scheduler events it took to produce it.
struct CollectiveRun {
  double sim_s = 0.0;
  std::uint64_t events = 0;
};

/// One timed run: `rounds` back-to-back collectives on a fresh machine.
template <class Body>
CollectiveRun run_collective(const machine::Cluster& cluster,
                             const vmpi::CollectiveTuning& tuning, Body body) {
  net::NetworkParams params;  // paper calibration, plus receiver-side cost
  params.recv_overhead_s = params.per_message_overhead_s;
  auto machine = vmpi::Machine::switched(cluster, params, tuning);
  const double sim_s = machine.run(body).elapsed;
  return CollectiveRun{sim_s, machine.events_processed()};
}

/// Publish per-run counters: the simulated completion time, and the host
/// event-processing rate (scheduler events per wall second) — the engine
/// throughput number that event-loop and payload-pooling work moves.
void set_counters(benchmark::State& state, const CollectiveRun& run,
                  std::uint64_t total_events) {
  state.counters["sim_s"] = benchmark::Counter(run.sim_s);
  state.counters["host_events_per_s"] = benchmark::Counter(
      static_cast<double>(total_events), benchmark::Counter::kIsRate);
}

void bcast_rounds(benchmark::State& state,
                  const vmpi::CollectiveTuning& tuning) {
  const auto cluster = blades(static_cast<int>(state.range(0)));
  CollectiveRun run;
  std::uint64_t events = 0;
  for (auto _ : state) {
    run = run_collective(cluster, tuning, [](vmpi::Comm& comm) -> Task<void> {
      for (int i = 0; i < kRounds; ++i) {
        vmpi::Payload payload;
        if (comm.rank() == 0) payload = vmpi::Payload(1.0);
        (void)co_await comm.bcast(0, 64.0, std::move(payload));
      }
    });
    events += run.events;
    benchmark::DoNotOptimize(run.sim_s);
  }
  state.SetItemsProcessed(state.iterations() * kRounds * state.range(0));
  set_counters(state, run, events);
}

void barrier_rounds(benchmark::State& state,
                    const vmpi::CollectiveTuning& tuning) {
  const auto cluster = blades(static_cast<int>(state.range(0)));
  CollectiveRun run;
  std::uint64_t events = 0;
  for (auto _ : state) {
    run = run_collective(cluster, tuning, [](vmpi::Comm& comm) -> Task<void> {
      for (int i = 0; i < kRounds; ++i) co_await comm.barrier();
    });
    events += run.events;
    benchmark::DoNotOptimize(run.sim_s);
  }
  state.SetItemsProcessed(state.iterations() * kRounds * state.range(0));
  set_counters(state, run, events);
}

void reduce_rounds(benchmark::State& state,
                   const vmpi::CollectiveTuning& tuning) {
  const auto cluster = blades(static_cast<int>(state.range(0)));
  CollectiveRun run;
  std::uint64_t events = 0;
  for (auto _ : state) {
    run = run_collective(cluster, tuning, [](vmpi::Comm& comm) -> Task<void> {
      for (int i = 0; i < kRounds; ++i) {
        (void)co_await comm.reduce_sum(0, 1.0);
      }
    });
    events += run.events;
    benchmark::DoNotOptimize(run.sim_s);
  }
  state.SetItemsProcessed(state.iterations() * kRounds * state.range(0));
  set_counters(state, run, events);
}

void gather_rounds(benchmark::State& state,
                   const vmpi::CollectiveTuning& tuning) {
  // Exercises the pooled-bundle hot path: the binomial gather ships whole
  // subtrees as native bundle payloads (Payload::make_bundle), so a warm
  // tree edge moves parts without touching the heap.
  const auto cluster = blades(static_cast<int>(state.range(0)));
  CollectiveRun run;
  std::uint64_t events = 0;
  for (auto _ : state) {
    run = run_collective(cluster, tuning, [](vmpi::Comm& comm) -> Task<void> {
      for (int i = 0; i < kRounds; ++i) {
        (void)co_await comm.gather(0, 64.0, vmpi::Payload(1.0));
      }
    });
    events += run.events;
    benchmark::DoNotOptimize(run.sim_s);
  }
  state.SetItemsProcessed(state.iterations() * kRounds * state.range(0));
  set_counters(state, run, events);
}

void BM_BcastFlat(benchmark::State& state) {
  bcast_rounds(state, vmpi::CollectiveTuning::legacy_flat());
}
void BM_BcastTree(benchmark::State& state) {
  bcast_rounds(state, vmpi::CollectiveTuning::tree());
}
void BM_BarrierFlat(benchmark::State& state) {
  barrier_rounds(state, vmpi::CollectiveTuning::legacy_flat());
}
void BM_BarrierTree(benchmark::State& state) {
  barrier_rounds(state, vmpi::CollectiveTuning::tree());
}
void BM_ReduceFlat(benchmark::State& state) {
  reduce_rounds(state, vmpi::CollectiveTuning::legacy_flat());
}
void BM_ReduceTree(benchmark::State& state) {
  reduce_rounds(state, vmpi::CollectiveTuning::tree());
}
void BM_GatherFlat(benchmark::State& state) {
  gather_rounds(state, vmpi::CollectiveTuning::legacy_flat());
}
void BM_GatherTree(benchmark::State& state) {
  gather_rounds(state, vmpi::CollectiveTuning::tree());
}

BENCHMARK(BM_BcastFlat)->Arg(64)->Arg(512)->Arg(2048);
BENCHMARK(BM_BcastTree)->Arg(64)->Arg(512)->Arg(2048);
BENCHMARK(BM_BarrierFlat)->Arg(64)->Arg(512)->Arg(2048);
BENCHMARK(BM_BarrierTree)->Arg(64)->Arg(512)->Arg(2048);
BENCHMARK(BM_ReduceFlat)->Arg(64)->Arg(512)->Arg(2048);
BENCHMARK(BM_ReduceTree)->Arg(64)->Arg(512)->Arg(2048);
BENCHMARK(BM_GatherFlat)->Arg(64)->Arg(512)->Arg(2048);
BENCHMARK(BM_GatherTree)->Arg(64)->Arg(512)->Arg(2048);

}  // namespace
