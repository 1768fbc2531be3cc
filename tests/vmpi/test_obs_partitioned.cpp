// Profiled, traced and fault-injected runs partition like any other run.
//
// Everything the observability hooks record is kept by the rank that
// produces it, so none of it may depend on how many partitions simulated
// the ranks. Each case runs one profiled machine at sim-threads 1 and at
// 2/4/8 and asserts three things: the partitioned machines really split
// their ranks, the published RunProfile is equal once the engine telemetry
// (the only partition-dependent content) is zeroed, and the Chrome trace
// is byte-identical.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "hetscale/algos/mm.hpp"
#include "hetscale/fault/degraded_network.hpp"
#include "hetscale/fault/injector.hpp"
#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/net/switched.hpp"
#include "hetscale/obs/profiler.hpp"
#include "hetscale/support/units.hpp"
#include "hetscale/vmpi/group.hpp"
#include "hetscale/vmpi/machine.hpp"

namespace hetscale::vmpi {
namespace {

using des::Task;

/// What one profiled run leaves behind.
struct Observed {
  int partitions = 0;
  obs::RunProfile profile;
  std::string chrome_trace;
};

/// Build a machine with `build()` under a fresh profiler, run `body` on it
/// at `sim_threads`, and collect the profile with its engine telemetry
/// zeroed.
template <class Build, class Body>
Observed observe(int sim_threads, const Build& build, const Body& body) {
  obs::Profiler profiler;
  Observed out;
  {
    obs::ProfilerScope scope(profiler);
    const std::unique_ptr<Machine> machine = build();
    machine->set_sim_threads(sim_threads);
    body(*machine);
    out.partitions = machine->partitions();
    out.chrome_trace = machine->tracer()->chrome_trace_json();
  }
  std::vector<obs::RunProfile> runs = profiler.sorted_runs();
  EXPECT_EQ(runs.size(), 1u);
  if (!runs.empty()) out.profile = std::move(runs.front());
  out.profile.des_queue = {};
  out.profile.des_queue_depth_max = 0;
  out.profile.frame_live_peak = 0;
  return out;
}

template <class Build, class Body>
void expect_partition_invariant(const Build& build, const Body& body) {
  const Observed one = observe(1, build, body);
  EXPECT_EQ(one.partitions, 1);
  EXPECT_GT(one.profile.des_events, 0u);
  EXPECT_FALSE(one.profile.comm_cells.empty());
  for (const int threads : {2, 4, 8}) {
    SCOPED_TRACE("sim-threads " + std::to_string(threads));
    const Observed many = observe(threads, build, body);
    EXPECT_GT(many.partitions, 1);
    // Field by field first, for a readable failure; then the whole profile.
    EXPECT_EQ(many.profile.elapsed_s, one.profile.elapsed_s);
    EXPECT_EQ(many.profile.budget, one.profile.budget);
    EXPECT_EQ(many.profile.des_events, one.profile.des_events);
    EXPECT_EQ(many.profile.messages, one.profile.messages);
    EXPECT_EQ(many.profile.bytes, one.profile.bytes);
    EXPECT_EQ(many.profile.wire_s, one.profile.wire_s);
    EXPECT_EQ(many.profile.contention_s, one.profile.contention_s);
    EXPECT_EQ(many.profile.links, one.profile.links);
    EXPECT_EQ(many.profile.comm_cells, one.profile.comm_cells);
    EXPECT_EQ(many.profile.critical_path, one.profile.critical_path);
    EXPECT_EQ(many.profile.fault, one.profile.fault);
    EXPECT_TRUE(many.profile == one.profile);
    EXPECT_EQ(many.chrome_trace, one.chrome_trace);
  }
}

net::NetworkParams fast_params() {
  net::NetworkParams p;
  p.remote = {1e-4, 1e7};
  p.per_message_overhead_s = 1e-5;
  return p;
}

/// Eight one-CPU nodes of unequal speed: one rank per node.
machine::Cluster eight_nodes() {
  machine::Cluster cluster;
  for (int i = 0; i < 8; ++i) {
    std::string name = "n";  // not "n" + ...: GCC 12's false -Wrestrict
    name += std::to_string(i);
    cluster.add_node(
        name, machine::NodeSpec{"Test", 1, units::mflops(30.0 + 10.0 * (i % 3)),
                                1e9, 4e8, {1.0}});
  }
  return cluster;
}

/// Point-to-point, world collectives, and Group collectives over the rows
/// and columns of a 2 x 4 grid, separated by barriers.
Task<void> mixed_program(Comm& comm) {
  const int p = comm.size();
  const int me = comm.rank();
  for (int round = 0; round < 2; ++round) {
    co_await comm.compute(2e5 * (me + 1));
    co_await comm.send((me + 1) % p, 10 + round, 512.0, Payload(1.0 * me));
    (void)co_await comm.recv((me + p - 1) % p, 10 + round);
  }
  Payload seed;
  if (me == 0) seed = Payload(7.0);
  (void)co_await comm.bcast(0, 64.0, std::move(seed));
  (void)co_await comm.bcast(0, 40000.0, Payload(2.0));  // long-message path
  (void)co_await comm.gather(p - 1, 128.0, Payload(3.0));
  (void)co_await comm.allgather(32.0, Payload(4.0));
  co_await comm.barrier();

  constexpr int kCols = 4;
  const int row = me / kCols;
  const int col = me % kCols;
  std::vector<int> row_members;
  std::vector<int> col_members;
  for (int c = 0; c < kCols; ++c) row_members.push_back(row * kCols + c);
  for (int r = 0; r < p / kCols; ++r) col_members.push_back(r * kCols + col);
  Group row_group(comm, row_members);
  Group col_group(comm, col_members);
  (void)co_await row_group.bcast(0, 50, 2048.0, Payload(5.0));
  co_await comm.compute(1e5 * (col + 1));
  (void)co_await col_group.bcast(0, 51, 1024.0, Payload(6.0));
  co_await comm.barrier();
}

TEST(ObsPartitioned, CollectivesAndGroupsOnASwitchedCluster) {
  expect_partition_invariant(
      [] {
        return std::make_unique<Machine>(
            eight_nodes(), std::make_unique<net::SwitchedNetwork>(fast_params()));
      },
      [](Machine& machine) { (void)machine.run(mixed_program); });
}

algos::MmOptions mm_options() {
  algos::MmOptions options;
  // B's broadcast is 100 * 100 * 8 bytes, so the legacy scatter-ring's
  // sixths are fractional.
  options.n = 100;
  options.with_data = false;
  options.speeds = {30.0, 45.0, 45.0, 20.0, 20.0, 20.0};
  return options;
}

std::unique_ptr<Machine> legacy_mm_machine(
    std::unique_ptr<net::Network> network) {
  return std::make_unique<Machine>(machine::sunwulf::mm_ensemble(6),
                                   std::move(network),
                                   CollectiveTuning::legacy_flat());
}

TEST(ObsPartitioned, LegacyFlatMmWithFractionalChunks) {
  expect_partition_invariant(
      [] {
        return legacy_mm_machine(
            std::make_unique<net::SwitchedNetwork>(net::NetworkParams{}));
      },
      [](Machine& machine) {
        (void)algos::run_parallel_mm(machine, mm_options());
      });
}

/// Every fault class live inside a short MM run: slowdowns and degraded
/// links cycling every 10 ms, message loss, and seeded crashes with cheap
/// checkpoints.
fault::FaultPlan active_plan() {
  fault::PlanSpec spec;
  spec.slowdown_probability = 1.0;
  spec.slowdown_factor = 0.5;
  spec.slowdown_duty = 0.5;
  spec.slowdown_period_s = 0.01;
  spec.link_duty = 0.5;
  spec.link_period_s = 0.01;
  spec.link_bandwidth_factor = 0.5;
  spec.link_extra_latency_s = 1e-4;
  spec.crash_rate_per_s = 20.0;
  spec.restart_delay_s = 0.005;
  spec.loss.drop_probability = 0.1;
  spec.checkpoint.interval_s = 0.02;
  spec.checkpoint.bytes = 1e4;
  spec.horizon_s = 2.0;
  return fault::FaultPlan::generate(7, spec, 6);
}

TEST(ObsPartitioned, FaultInjectedMmOnADegradedSwitch) {
  const fault::FaultPlan plan = active_plan();
  std::vector<double> rates;
  for (const machine::Processor& proc :
       machine::sunwulf::mm_ensemble(6).processors()) {
    rates.push_back(proc.rate_flops);
  }
  // One injector per run: its per-rank cursors are consumed as it goes.
  std::unique_ptr<fault::Injector> injector;
  expect_partition_invariant(
      [&] {
        auto machine = legacy_mm_machine(std::make_unique<fault::DegradedNetwork>(
            std::make_unique<net::SwitchedNetwork>(net::NetworkParams{}),
            plan));
        injector = std::make_unique<fault::Injector>(plan, rates);
        machine->attach_fault_hooks(injector.get());
        return machine;
      },
      [&](Machine& machine) {
        (void)algos::run_parallel_mm(machine, mm_options());
        // The plan is genuinely active in this run.
        const fault::RankFaultStats totals = injector->totals();
        EXPECT_GT(totals.checkpoints, 0u);
        EXPECT_GT(totals.crashes, 0u);
        EXPECT_GT(totals.retries, 0u);
        EXPECT_GT(totals.slowdown_s, 0.0);
      });
}

}  // namespace
}  // namespace hetscale::vmpi
