// FaultPlan — builders validate their events, generation is a pure function
// of (seed, spec, ranks), and counter-keyed draws make plans for different
// rank counts agree on their common ranks.
#include "hetscale/fault/plan.hpp"

#include <gtest/gtest.h>

#include "hetscale/support/error.hpp"

namespace hetscale::fault {
namespace {

PlanSpec busy_spec() {
  PlanSpec spec;
  spec.slowdown_probability = 0.5;
  spec.slowdown_factor = 0.6;
  spec.slowdown_duty = 0.4;
  spec.slowdown_period_s = 1.0;
  spec.link_duty = 0.25;
  spec.link_period_s = 2.0;
  spec.link_bandwidth_factor = 0.5;
  spec.link_extra_latency_s = 1e-4;
  spec.crash_rate_per_s = 0.2;
  spec.restart_delay_s = 0.5;
  spec.loss.drop_probability = 0.05;
  spec.checkpoint.interval_s = 2.0;
  spec.checkpoint.bytes = 1e6;
  spec.horizon_s = 10.0;
  return spec;
}

void expect_identical(const FaultPlan& a, const FaultPlan& b) {
  ASSERT_EQ(a.slowdowns().size(), b.slowdowns().size());
  for (std::size_t i = 0; i < a.slowdowns().size(); ++i) {
    EXPECT_EQ(a.slowdowns()[i].rank, b.slowdowns()[i].rank);
    EXPECT_EQ(a.slowdowns()[i].start, b.slowdowns()[i].start);
    EXPECT_EQ(a.slowdowns()[i].end, b.slowdowns()[i].end);
    EXPECT_EQ(a.slowdowns()[i].factor, b.slowdowns()[i].factor);
  }
  ASSERT_EQ(a.link_faults().size(), b.link_faults().size());
  for (std::size_t i = 0; i < a.link_faults().size(); ++i) {
    EXPECT_EQ(a.link_faults()[i].start, b.link_faults()[i].start);
    EXPECT_EQ(a.link_faults()[i].end, b.link_faults()[i].end);
  }
  ASSERT_EQ(a.crashes().size(), b.crashes().size());
  for (std::size_t i = 0; i < a.crashes().size(); ++i) {
    EXPECT_EQ(a.crashes()[i].rank, b.crashes()[i].rank);
    EXPECT_EQ(a.crashes()[i].at, b.crashes()[i].at);
  }
  EXPECT_EQ(a.loss().drop_probability, b.loss().drop_probability);
  EXPECT_EQ(a.checkpoint().interval_s, b.checkpoint().interval_s);
  EXPECT_EQ(a.restart_delay_s(), b.restart_delay_s());
}

TEST(FaultPlan, GenerationIsDeterministic) {
  const FaultPlan a = FaultPlan::generate(7, busy_spec(), 4);
  const FaultPlan b = FaultPlan::generate(7, busy_spec(), 4);
  expect_identical(a, b);
  EXPECT_FALSE(a.empty());
}

TEST(FaultPlan, DifferentSeedsGiveDifferentSchedules) {
  const FaultPlan a = FaultPlan::generate(7, busy_spec(), 4);
  const FaultPlan b = FaultPlan::generate(8, busy_spec(), 4);
  // Crash schedules are exponential draws off the seed: a collision across
  // every event of two seeds would mean the PRNG is broken.
  ASSERT_FALSE(a.crashes().empty());
  ASSERT_FALSE(b.crashes().empty());
  EXPECT_NE(a.crashes().front().at, b.crashes().front().at);
}

TEST(FaultPlan, CommonRanksShareEventsAcrossRankCounts) {
  // Counter-keyed draws: growing the ensemble appends new ranks' events
  // without perturbing the existing ones.
  const FaultPlan small = FaultPlan::generate(11, busy_spec(), 4);
  const FaultPlan large = FaultPlan::generate(11, busy_spec(), 8);
  for (int rank = 0; rank < 4; ++rank) {
    EXPECT_EQ(small.crash_times(rank), large.crash_times(rank)) << rank;
  }
  ASSERT_LE(small.slowdowns().size(), large.slowdowns().size());
  for (std::size_t i = 0; i < small.slowdowns().size(); ++i) {
    EXPECT_EQ(small.slowdowns()[i].rank, large.slowdowns()[i].rank);
    EXPECT_EQ(small.slowdowns()[i].start, large.slowdowns()[i].start);
  }
}

TEST(FaultPlan, SlowdownFactorsComposeOverHalfOpenIntervals) {
  FaultPlan plan;
  plan.add_slowdown({0, 1.0, 3.0, 0.5});
  plan.add_slowdown({0, 2.0, 4.0, 0.5});
  plan.add_slowdown({1, 0.0, 10.0, 0.25});
  EXPECT_DOUBLE_EQ(plan.slowdown_factor(0, 0.5), 1.0);
  EXPECT_DOUBLE_EQ(plan.slowdown_factor(0, 1.0), 0.5);   // start inclusive
  EXPECT_DOUBLE_EQ(plan.slowdown_factor(0, 2.5), 0.25);  // overlap multiplies
  EXPECT_DOUBLE_EQ(plan.slowdown_factor(0, 3.0), 0.5);   // end exclusive
  EXPECT_DOUBLE_EQ(plan.slowdown_factor(0, 4.0), 1.0);
  EXPECT_DOUBLE_EQ(plan.slowdown_factor(1, 5.0), 0.25);
  EXPECT_DOUBLE_EQ(plan.slowdown_factor(2, 5.0), 1.0);
}

TEST(FaultPlan, LinkStateComposesActiveWindows) {
  FaultPlan plan;
  plan.add_link_fault({1.0, 3.0, 0.5, 1e-3});
  plan.add_link_fault({2.0, 4.0, 0.5, 1e-3});
  EXPECT_DOUBLE_EQ(plan.link_state(0.0).bandwidth_factor, 1.0);
  EXPECT_DOUBLE_EQ(plan.link_state(2.5).bandwidth_factor, 0.25);
  EXPECT_DOUBLE_EQ(plan.link_state(2.5).extra_latency_s, 2e-3);
  EXPECT_DOUBLE_EQ(plan.link_state(3.0).bandwidth_factor, 0.5);
  EXPECT_DOUBLE_EQ(plan.link_state(4.0).bandwidth_factor, 1.0);
}

TEST(FaultPlan, CrashTimesAreSortedPerRank) {
  FaultPlan plan;
  plan.add_crash({0, 5.0}).add_crash({0, 1.0}).add_crash({1, 3.0});
  EXPECT_EQ(plan.crash_times(0), (std::vector<des::SimTime>{1.0, 5.0}));
  EXPECT_EQ(plan.crash_times(1), (std::vector<des::SimTime>{3.0}));
  EXPECT_TRUE(plan.crash_times(2).empty());
}

TEST(FaultPlan, BuildersValidate) {
  FaultPlan plan;
  EXPECT_THROW(plan.add_slowdown({-1, 0.0, 1.0, 0.5}), PreconditionError);
  EXPECT_THROW(plan.add_slowdown({0, 2.0, 1.0, 0.5}), PreconditionError);
  EXPECT_THROW(plan.add_slowdown({0, 0.0, 1.0, 0.0}), PreconditionError);
  EXPECT_THROW(plan.add_slowdown({0, 0.0, 1.0, 1.5}), PreconditionError);
  EXPECT_THROW(plan.add_link_fault({0.0, 0.0, 0.5, 0.0}), PreconditionError);
  EXPECT_THROW(plan.add_link_fault({0.0, 1.0, 0.0, 0.0}), PreconditionError);
  EXPECT_THROW(plan.add_link_fault({0.0, 1.0, 0.5, -1.0}), PreconditionError);
  EXPECT_THROW(plan.add_crash({0, 0.0}), PreconditionError);
  EXPECT_THROW(plan.set_restart_delay(-1.0), PreconditionError);

  LossModel certain_loss;
  certain_loss.drop_probability = 1.0;
  EXPECT_THROW(plan.set_loss(certain_loss), PreconditionError);
  LossModel no_retry;
  no_retry.drop_probability = 0.5;
  no_retry.max_attempts = 1;
  EXPECT_THROW(plan.set_loss(no_retry), PreconditionError);

  CheckpointPolicy free_writes;
  free_writes.interval_s = 1.0;
  free_writes.write_bandwidth_Bps = 0.0;
  EXPECT_THROW(plan.set_checkpoint(free_writes), PreconditionError);

  EXPECT_THROW(FaultPlan::generate(0, busy_spec(), 0), PreconditionError);
  PlanSpec no_horizon = busy_spec();
  no_horizon.horizon_s = 0.0;
  EXPECT_THROW(FaultPlan::generate(0, no_horizon, 2), PreconditionError);
}

TEST(FaultPlan, GenerationStopsAtTheEventBound) {
  // About 2e6 crashes on two ranks: rejected at the bound, whose value the
  // message names, before the plan holds more events than it.
  PlanSpec crashes;
  crashes.horizon_s = 1.0;
  crashes.crash_rate_per_s = 1e6;
  try {
    (void)FaultPlan::generate(7, crashes, 2);
    ADD_FAILURE() << "accepted";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find(std::to_string(kMaxPlanEvents)),
              std::string::npos)
        << error.what();
  }
  // Windows count too: 1e7 link windows on one rank.
  PlanSpec windows;
  windows.horizon_s = 1.0;
  windows.link_duty = 0.5;
  windows.link_period_s = 1e-7;
  EXPECT_THROW(FaultPlan::generate(7, windows, 1), PreconditionError);
}

TEST(FaultPlan, EmptyAndSummary) {
  FaultPlan plan(9);
  EXPECT_TRUE(plan.empty());
  plan.add_slowdown({0, 0.0, 1.0, 0.5});
  LossModel loss;
  loss.drop_probability = 0.05;
  plan.set_loss(loss);
  EXPECT_FALSE(plan.empty());
  const std::string summary = plan.summary();
  EXPECT_NE(summary.find("seed=9"), std::string::npos);
  EXPECT_NE(summary.find("1 slowdowns"), std::string::npos);
  EXPECT_NE(summary.find("loss p=0.05"), std::string::npos);
}

}  // namespace
}  // namespace hetscale::fault
