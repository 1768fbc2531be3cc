// The scenario registry — named, rerunnable experiments.
//
// A Scenario wraps one paper artifact (a table, a figure, an ablation) as
// a function from a RunContext (worker pool + output format) to a
// RunResult. Scenarios register under a stable name; the bench launchers
// and `hetscale_cli run <name>` both resolve through this registry and run
// through run_scenario(), so every artifact has exactly one implementation
// and one launch path, with `--jobs N` parallelism.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hetscale/run/result.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/support/args.hpp"

namespace hetscale::run {

enum class OutputFormat { kText, kCsv, kJson };

struct RunContext {
  Runner& runner;
  OutputFormat format = OutputFormat::kText;
  /// Experiment seed (--seed). Fault scenarios expand it into a FaultPlan;
  /// healthy scenarios are free to ignore it.
  std::uint64_t seed = 0;
};

struct Scenario {
  std::string name;     ///< registry key, e.g. "table3_ge_required_rank"
  std::string summary;  ///< one line for listings
  std::function<RunResult(const RunContext&)> run;
};

/// Register a scenario. Throws PreconditionError on a duplicate name or a
/// missing run function.
void register_scenario(Scenario scenario);

/// The scenario registered under `name`, or nullptr.
const Scenario* find_scenario(const std::string& name);

/// All registered scenarios, sorted by name.
std::vector<const Scenario*> all_scenarios();

/// Parse "text" / "csv" / "json" (throws PreconditionError otherwise).
OutputFormat parse_format(const std::string& text);

/// Render `result` in `format` (the scenario's prepared text, its CSV
/// table, or its JSON record).
const std::string& render(const RunResult& result, OutputFormat format,
                          std::string& storage);

/// Declare the flags run_scenario() reads: --format=text|csv|json,
/// --profile, --jobs N / -j N, --sim-threads N and --seed N.
ArgParser& add_scenario_flags(ArgParser& args);

/// Run `scenario` with those flags, already parsed: --sim-threads becomes
/// the process-wide sim-thread count, the run gets a --jobs-wide Runner and
/// --seed, and the result is printed to stdout in --format. With --profile
/// the machines built during the run report to a profiler, whose
/// time-budget table follows on stderr. The bench launchers and
/// `hetscale_cli run` both end here. Throws on a malformed flag.
void run_scenario(const Scenario& scenario, const ArgParser& args);

}  // namespace hetscale::run
