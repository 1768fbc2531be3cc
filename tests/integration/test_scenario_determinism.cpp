// Determinism regression suite for the paper artifacts.
//
// Two independent guarantees, pinned here so hot-path work on the event
// queue, the message plane, or the kernels cannot silently change results:
//
//   1. Job invariance — every scenario renders byte-identical output at
//      --jobs 1 and --jobs 4. The measurement store is disabled for the
//      comparison so the second run genuinely recomputes.
//   2. Golden artifacts — the CSV and text renderings match the checked-in
//      golden files (tests/golden/<name>.csv and <name>.txt), byte for
//      byte.
//
// Plus the scheduler-level invariants: replaying one simulation yields the
// same events_processed() and the same final now().
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "hetscale/algos/ge.hpp"
#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/support/args.hpp"
#include "hetscale/run/scenario.hpp"
#include "hetscale/scal/combination.hpp"
#include "hetscale/scal/measure_store.hpp"
#include "hetscale/scenarios/dist2d.hpp"
#include "hetscale/scenarios/large_p.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/scenarios/zoo.hpp"

namespace hetscale {
namespace {

/// Run the scenarios without the cross-scenario store: job invariance must
/// hold from genuine recomputation, not from shared memoization.
class StoreDisabledScope {
 public:
  StoreDisabledScope() : was_enabled_(scal::MeasurementStore::global().enabled()) {
    scal::MeasurementStore::global().set_enabled(false);
  }
  ~StoreDisabledScope() {
    scal::MeasurementStore::global().set_enabled(was_enabled_);
  }

 private:
  bool was_enabled_;
};

/// The CSV and text renderings of one run of a scenario.
struct Rendered {
  std::string csv;
  std::string text;
};

Rendered render_scenario(const std::string& scenario_name, int jobs) {
  scenarios::register_paper_scenarios();
  scenarios::register_dist2d_scenarios();
  scenarios::register_zoo_scenarios();
  scenarios::register_large_p_scenarios();
  const run::Scenario* scenario = run::find_scenario(scenario_name);
  if (scenario == nullptr) ADD_FAILURE() << "unknown scenario " << scenario_name;
  run::Runner runner(jobs);
  const run::RunContext context{runner, run::OutputFormat::kCsv, 0};
  const run::RunResult result = scenario->run(context);
  std::string storage;
  return {run::render(result, run::OutputFormat::kCsv, storage),
          run::render(result, run::OutputFormat::kText, storage)};
}

std::string read_file(const std::string& scenario_name,
                      const std::string& extension) {
  const std::string path = std::string(HETSCALE_TEST_GOLDEN_DIR) + "/" +
                           scenario_name + extension;
  std::ifstream in(path, std::ios::binary);
  if (!in.good()) {
    ADD_FAILURE() << "missing golden file " << path;
    return {};
  }
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

Rendered read_golden(const std::string& scenario_name) {
  return {read_file(scenario_name, ".csv"), read_file(scenario_name, ".txt")};
}

/// Both renderings of `got` equal `want`'s; `why` names the setting.
void expect_same(const Rendered& got, const Rendered& want,
                 const std::string& why) {
  EXPECT_EQ(got.csv, want.csv) << "csv: " << why;
  EXPECT_EQ(got.text, want.text) << "text: " << why;
}

/// Pin the process-wide --sim-threads knob for one scope. New machines
/// read global_sim_threads() at construction, so this is all a scenario
/// render needs to run partitioned.
class ScopedSimThreads {
 public:
  explicit ScopedSimThreads(int threads)
      : previous_(global_sim_threads()) {
    set_global_sim_threads(threads);
  }
  ~ScopedSimThreads() { set_global_sim_threads(previous_); }

 private:
  int previous_;
};

class ScenarioDeterminism : public ::testing::TestWithParam<const char*> {};

TEST_P(ScenarioDeterminism, JobInvariantAndMatchesGolden) {
  const std::string name = GetParam();
  StoreDisabledScope no_store;
  const Rendered jobs1 = render_scenario(name, 1);
  expect_same(render_scenario(name, 4), jobs1,
              name + ": artifact depends on --jobs");
  expect_same(jobs1, read_golden(name),
              name + ": artifact drifted from golden");
}

INSTANTIATE_TEST_SUITE_P(PaperArtifacts, ScenarioDeterminism,
                         ::testing::Values("table1_marked_speed",
                                           "table2_ge_two_nodes",
                                           "table3_ge_required_rank",
                                           "table4_ge_scalability",
                                           "table5_mm_scalability",
                                           "table6_ge_predicted_rank",
                                           "table7_ge_predicted_scalability",
                                           "fig1_ge_speed_efficiency",
                                           "fig2_mm_speed_efficiency",
                                           "summa_mm_scalability",
                                           "ge_pivot_scalability",
                                           "spmv_imbalance",
                                           "model_zoo_ranking",
                                           "large_p_scalability"));

// Sim-thread invariance: the partitioned conservative scheduler
// (--sim-threads > 1) must render every golden artifact byte-identically.
// Machines that run as one partition whatever the thread count (shared
// bus: no lookahead; two ranks on a node) pass trivially; profiled and
// fault-injected machines partition like the rest.
class SimThreadInvariance : public ::testing::TestWithParam<const char*> {};

TEST_P(SimThreadInvariance, PartitionedRenderMatchesGolden) {
  const std::string name = GetParam();
  StoreDisabledScope no_store;
  const Rendered golden = read_golden(name);
  {
    ScopedSimThreads two(2);
    expect_same(render_scenario(name, 1), golden,
                name + ": artifact depends on --sim-threads 2");
  }
  {
    ScopedSimThreads eight(8);
    expect_same(render_scenario(name, 1), golden,
                name + ": artifact depends on --sim-threads 8");
    // Replication parallelism (--jobs) on top of simulation parallelism:
    // the two knobs must compose without touching the bytes.
    expect_same(render_scenario(name, 4), golden,
                name + ": --jobs x --sim-threads interaction leaks into bytes");
  }
}

INSTANTIATE_TEST_SUITE_P(GoldenArtifacts, SimThreadInvariance,
                         ::testing::Values("table1_marked_speed",
                                           "table2_ge_two_nodes",
                                           "table3_ge_required_rank",
                                           "table4_ge_scalability",
                                           "table5_mm_scalability",
                                           "table6_ge_predicted_rank",
                                           "table7_ge_predicted_scalability",
                                           "fig1_ge_speed_efficiency",
                                           "fig2_mm_speed_efficiency",
                                           "summa_mm_scalability",
                                           "ge_pivot_scalability",
                                           "spmv_imbalance",
                                           "model_zoo_ranking",
                                           "large_p_scalability"));

TEST(SchedulerDeterminism, ReplayRepeatsEventCountAndFinalTime) {
  // One GE simulation, replayed on a fresh machine: the event count and the
  // final clock are part of the deterministic contract, not just the
  // elapsed-time artifact.
  const auto run_once = [] {
    auto machine = vmpi::Machine::switched(machine::sunwulf::ge_ensemble(4),
                                           net::NetworkParams{});
    algos::GeOptions options;
    options.n = 96;
    options.with_data = false;
    const auto result = algos::run_parallel_ge(machine, options);
    return std::pair{machine.events_processed(), result.run.elapsed};
  };
  const auto [events_a, now_a] = run_once();
  const auto [events_b, now_b] = run_once();
  EXPECT_GT(events_a, 0u);
  EXPECT_EQ(events_a, events_b);
  EXPECT_EQ(now_a, now_b);  // bit-equal, not approximately
}

}  // namespace
}  // namespace hetscale
