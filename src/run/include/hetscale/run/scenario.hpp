// The scenario registry — named, rerunnable experiments.
//
// A Scenario wraps one paper artifact (a table, a figure, an ablation) as
// a function from a RunContext (worker pool + output format) to a
// RunResult. Scenarios register under a stable name; the bench binaries
// and `hetscale_cli run <name>` both resolve through this registry, so
// every artifact has exactly one implementation and a one-command
// regeneration path with `--jobs N` parallelism.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hetscale/run/result.hpp"
#include "hetscale/run/runner.hpp"

namespace hetscale::run {

enum class OutputFormat { kText, kCsv, kJson };

struct RunContext {
  Runner& runner;
  OutputFormat format = OutputFormat::kText;
  /// Experiment seed (--seed / HETSCALE_SEED). Fault scenarios expand it
  /// into a FaultPlan; healthy scenarios are free to ignore it.
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

/// Shared main() for scenario-backed binaries and the CLI `run` command:
/// parses --format=text|csv|json, --jobs N / -j N (HETSCALE_JOBS fallback),
/// --seed N (HETSCALE_SEED fallback), --profile (time-budget report on
/// stderr), and --help from argv[1..], runs the named scenario, prints to
/// stdout. Returns a process exit code.
int scenario_main(const std::string& name, int argc, const char* const* argv);

}  // namespace hetscale::run
