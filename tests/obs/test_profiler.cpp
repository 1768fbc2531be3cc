#include "hetscale/obs/profiler.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "hetscale/obs/report.hpp"

namespace hetscale::obs {
namespace {

RunProfile sample_run(double elapsed) {
  RunProfile run;
  run.elapsed_s = elapsed;
  run.budget.elapsed_s = elapsed;
  run.budget.compute_s = 0.5 * elapsed;
  run.budget.comm_s = 0.25 * elapsed;
  run.budget.sequential_s = 0.25 * elapsed;
  run.compute_s = elapsed;
  run.comm_s = 0.5 * elapsed;
  run.messages = 4;
  run.bytes = 1024.0;
  run.links.push_back(LinkProfile{0, 512.0, 0.1, 0.0});
  return run;
}

TEST(Profiler, AmbientScopeInstallsAndRestores) {
  EXPECT_EQ(current(), nullptr);
  {
    Profiler outer;
    ProfilerScope outer_scope(outer);
    EXPECT_EQ(current(), &outer);
    {
      Profiler inner;
      ProfilerScope inner_scope(inner);
      EXPECT_EQ(current(), &inner);
    }
    EXPECT_EQ(current(), &outer);
  }
  EXPECT_EQ(current(), nullptr);
}

TEST(Profiler, ReportIsInvariantToRunInsertionOrder) {
  auto render = [](const std::vector<double>& elapsed_order) {
    Profiler profiler;
    for (double elapsed : elapsed_order) {
      profiler.add_run(sample_run(elapsed));
    }
    std::ostringstream os;
    profiler.report().to_json(os);
    return os.str();
  };
  // The Runner may finish runs in any order; exports must not care.
  EXPECT_EQ(render({3.0, 1.0, 2.0}), render({1.0, 2.0, 3.0}));
  EXPECT_EQ(render({2.0, 3.0, 1.0}), render({1.0, 2.0, 3.0}));
}

TEST(Profiler, ReportFoldsBudgetAndTraffic) {
  Profiler profiler;
  profiler.add_run(sample_run(1.0));
  profiler.add_run(sample_run(3.0));
  const Report report = profiler.report();
  EXPECT_EQ(report.runs(), 2u);
  EXPECT_DOUBLE_EQ(report.elapsed_s(), 4.0);
  EXPECT_DOUBLE_EQ(report.budget().compute_s, 2.0);
  const Counter* messages =
      report.metrics().find_counter("hetscale_vmpi_messages_total");
  ASSERT_NE(messages, nullptr);
  EXPECT_DOUBLE_EQ(messages->value, 8.0);
  const Counter* link_bytes = report.metrics().find_counter(
      "hetscale_net_link_bytes_total", {{"node", "0"}});
  ASSERT_NE(link_bytes, nullptr);
  EXPECT_DOUBLE_EQ(link_bytes->value, 1024.0);
}

TEST(Profiler, FaultMetricsAppearOnlyWhenCharged) {
  Profiler profiler;
  profiler.add_run(sample_run(1.0));
  EXPECT_EQ(profiler.report().metrics().find_counter(
                "hetscale_fault_seconds_total", {{"cause", "rework"}}),
            nullptr);

  RunProfile faulted = sample_run(1.0);
  faulted.fault.rework_s = 0.25;
  faulted.fault.crashes = 1;
  profiler.add_run(faulted);
  const Report report = profiler.report();
  const Counter* rework = report.metrics().find_counter(
      "hetscale_fault_seconds_total", {{"cause", "rework"}});
  ASSERT_NE(rework, nullptr);
  EXPECT_DOUBLE_EQ(rework->value, 0.25);
}

}  // namespace
}  // namespace hetscale::obs
