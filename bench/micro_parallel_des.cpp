// Macro-benchmark of the partitioned conservative DES core: the large-p
// GE rungs (the `large_p_scalability` workload this engine was built for)
// at --sim-threads 1 vs 2 vs 8.
//
// Each timed iteration simulates one full GE rung — the fixed
// communication-volume ladder point n = 2^20 / p on the synthetic Sunwulf
// ensemble with tree collectives and a switched fabric — on a fresh
// machine with the requested partition count. The simulated results are
// bit-identical at every thread count (the conservative window protocol
// guarantees it; tests/integration enforces it byte-for-byte), so the only
// thing that moves between the /1, /2, and /8 rows is host wall-clock.
//
// A developer tool: the tracked numbers come from `benchmark/run.py`
// (des.parallel_speedup.*). Read the /1-over-/8 wall ratio only on a host
// with at least eight cores — fewer cores serialize the partition threads
// and the ratio inverts.
//
// Two counters per row:
//   * sim_s — the simulated rung completion time (identical across thread
//     counts, a cheap cross-check that the partitioning changed nothing);
//   * host_events_per_s — scheduler events processed per wall second,
//     summed across partitions: the engine-throughput number.
#include <benchmark/benchmark.h>

#include <cstdint>

#include "hetscale/algos/ge.hpp"
#include "hetscale/marked/suite.hpp"
#include "hetscale/scal/combination.hpp"
#include "hetscale/scenarios/large_p.hpp"
#include "hetscale/vmpi/machine.hpp"

namespace {

using namespace hetscale;

/// Fixed GE communication volume shared by the rungs: n(p) = kGeVolume / p
/// (mirrors scenarios/large_p.cpp so the bench times the same ladder).
constexpr std::int64_t kGeVolume = std::int64_t{1} << 20;

void BM_LargePGeRung(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const int sim_threads = static_cast<int>(state.range(1));
  const auto config = scenarios::large_p_config(ranks);
  const std::vector<double> speeds =
      marked::rank_marked_speeds(config.cluster);

  double sim_s = 0.0;
  std::uint64_t events = 0;
  for (auto _ : state) {
    auto machine =
        vmpi::Machine::switched(config.cluster, config.net_params,
                                config.tuning);
    machine.set_sim_threads(sim_threads);
    algos::GeOptions options;
    options.n = kGeVolume / ranks;
    options.with_data = config.with_data;
    options.speeds = speeds;
    const auto result = algos::run_parallel_ge(machine, options);
    sim_s = result.run.elapsed;
    events += machine.events_processed();
    benchmark::DoNotOptimize(sim_s);
  }
  state.counters["sim_s"] = benchmark::Counter(sim_s);
  state.counters["host_events_per_s"] = benchmark::Counter(
      static_cast<double>(events), benchmark::Counter::kIsRate);
}

// One iteration per row: a rung is seconds of wall-clock, and the
// simulator is deterministic, so repetition buys nothing but CI minutes.
BENCHMARK(BM_LargePGeRung)
    ->Args({1024, 1})
    ->Args({1024, 2})
    ->Args({1024, 8})
    ->Args({4096, 1})
    ->Args({4096, 2})
    ->Args({4096, 8})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace
