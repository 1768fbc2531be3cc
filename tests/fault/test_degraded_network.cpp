// DegradedNetwork — the decorator inflates on-wire size (so degradation
// occupies the medium and contention emerges from the inner model), adds
// latency to the arrival only, leaves intra-node traffic alone, and keeps
// nominal traffic statistics.
#include "hetscale/fault/degraded_network.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "hetscale/algos/mm.hpp"
#include "hetscale/fault/injector.hpp"
#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/net/switched.hpp"
#include "hetscale/support/error.hpp"
#include "hetscale/vmpi/machine.hpp"

namespace hetscale::fault {
namespace {

FaultPlan window_plan() {
  FaultPlan plan;
  plan.add_link_fault({10.0, 20.0, 0.5, 1e-3});
  return plan;
}

// Network is move-suppressed (non-copyable base), so build on the heap.
std::unique_ptr<DegradedNetwork> wrap(const FaultPlan& plan) {
  return std::make_unique<DegradedNetwork>(
      std::make_unique<net::SwitchedNetwork>(), plan);
}

TEST(DegradedNetwork, HealthyWindowMatchesTheInnerModelExactly) {
  const FaultPlan plan = window_plan();
  auto degraded = wrap(plan);
  net::SwitchedNetwork healthy;
  const auto a = degraded->transfer(0, 1, 4096.0, 0.0);
  const auto b = healthy.transfer(0, 1, 4096.0, 0.0);
  EXPECT_DOUBLE_EQ(a.arrival, b.arrival);
  EXPECT_DOUBLE_EQ(a.sender_free, b.sender_free);
}

TEST(DegradedNetwork, DegradedWindowInflatesBytesAndDelaysArrival) {
  const FaultPlan plan = window_plan();
  auto degraded = wrap(plan);
  net::SwitchedNetwork healthy;
  // Half bandwidth == the healthy model carrying twice the bytes, plus the
  // extra propagation latency on the arrival side only.
  const auto faulty = degraded->transfer(0, 1, 4096.0, 10.0);
  const auto reference = healthy.transfer(0, 1, 8192.0, 10.0);
  EXPECT_DOUBLE_EQ(faulty.arrival, reference.arrival + 1e-3);
  EXPECT_DOUBLE_EQ(faulty.sender_free, reference.sender_free);
}

TEST(DegradedNetwork, WindowIsChosenByDepartureTime) {
  const FaultPlan plan = window_plan();
  auto in_window = wrap(plan);
  auto past_window = wrap(plan);
  net::SwitchedNetwork healthy;
  // The window is half-open: a frame departing exactly at the end is
  // healthy again.
  const auto at_end = past_window->transfer(0, 1, 4096.0, 20.0);
  const auto reference = healthy.transfer(0, 1, 4096.0, 20.0);
  EXPECT_DOUBLE_EQ(at_end.arrival, reference.arrival);
  const auto inside = in_window->transfer(0, 1, 4096.0, 19.0);
  EXPECT_GT(inside.arrival - 19.0, at_end.arrival - 20.0);
}

TEST(DegradedNetwork, IntraNodeTransfersAreUntouched) {
  const FaultPlan plan = window_plan();
  auto degraded = wrap(plan);
  net::SwitchedNetwork healthy;
  const auto a = degraded->transfer(2, 2, 4096.0, 12.0);
  const auto b = healthy.transfer(2, 2, 4096.0, 12.0);
  EXPECT_DOUBLE_EQ(a.arrival, b.arrival);
  EXPECT_DOUBLE_EQ(a.sender_free, b.sender_free);
}

TEST(DegradedNetwork, StatisticsCountNominalBytes) {
  const FaultPlan plan = window_plan();
  auto degraded = wrap(plan);
  degraded->transfer(0, 1, 1000.0, 12.0);  // degraded: on-wire 2000 bytes
  degraded->transfer(0, 1, 1000.0, 30.0);  // healthy
  EXPECT_EQ(degraded->stats().messages, 2u);
  EXPECT_DOUBLE_EQ(degraded->stats().bytes, 2000.0);
}

TEST(DegradedNetwork, ForwardsTheInnerLookahead) {
  // Inflated frames and extra latency only make arrivals later, so the
  // inner model's lookahead still bounds the decorated one.
  const FaultPlan plan = window_plan();
  net::SwitchedNetwork switched;
  EXPECT_GT(switched.lookahead_s(), 0.0);
  EXPECT_EQ(wrap(plan)->lookahead_s(), switched.lookahead_s());
}

TEST(DegradedNetwork, InjectedMmRunPartitions) {
  // A fault-injected machine on a degraded switch splits its ranks across
  // partitions and still reproduces the one-partition run exactly.
  PlanSpec spec;
  spec.slowdown_probability = 1.0;
  spec.slowdown_period_s = 0.01;
  spec.link_period_s = 0.01;
  spec.crash_rate_per_s = 20.0;
  spec.loss.drop_probability = 0.1;
  spec.checkpoint.interval_s = 0.02;
  spec.horizon_s = 2.0;
  const machine::Cluster cluster = machine::sunwulf::mm_ensemble(4);
  const FaultPlan plan = FaultPlan::generate(3, spec, 4);
  std::vector<double> rates;
  for (const machine::Processor& proc : cluster.processors()) {
    rates.push_back(proc.rate_flops);
  }
  const auto run_at = [&](int sim_threads, int* partitions) {
    vmpi::Machine machine(
        cluster,
        std::make_unique<DegradedNetwork>(
            std::make_unique<net::SwitchedNetwork>(), plan));
    Injector injector(plan, rates);
    machine.attach_fault_hooks(&injector);
    machine.set_sim_threads(sim_threads);
    *partitions = machine.partitions();
    algos::MmOptions options;
    options.n = 64;
    options.with_data = false;
    options.speeds = {30.0, 45.0, 20.0, 20.0};
    return algos::run_parallel_mm(machine, options).run.elapsed;
  };
  int one = 0;
  int many = 0;
  const double sequential = run_at(1, &one);
  const double partitioned = run_at(4, &many);
  EXPECT_EQ(one, 1);
  EXPECT_EQ(many, 4);
  EXPECT_EQ(partitioned, sequential);
}

TEST(DegradedNetwork, ValidatesItsInputs) {
  const FaultPlan plan = window_plan();
  EXPECT_THROW(DegradedNetwork(nullptr, plan), PreconditionError);
  auto degraded = wrap(plan);
  EXPECT_THROW(degraded->transfer(0, 1, -1.0, 0.0), PreconditionError);
}

}  // namespace
}  // namespace hetscale::fault
