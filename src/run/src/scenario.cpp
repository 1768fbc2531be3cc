#include "hetscale/run/scenario.hpp"

#include <iostream>
#include <map>
#include <optional>
#include <utility>

#include "hetscale/obs/report.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::run {

namespace {

std::map<std::string, Scenario>& registry() {
  static std::map<std::string, Scenario> scenarios;
  return scenarios;
}

}  // namespace

void register_scenario(Scenario scenario) {
  HETSCALE_REQUIRE(!scenario.name.empty(), "scenario name must be non-empty");
  HETSCALE_REQUIRE(scenario.run != nullptr,
                   "scenario '" + scenario.name + "' has no run function");
  const auto [it, inserted] =
      registry().emplace(scenario.name, std::move(scenario));
  HETSCALE_REQUIRE(inserted,
                   "scenario '" + it->first + "' is already registered");
}

const Scenario* find_scenario(const std::string& name) {
  const auto it = registry().find(name);
  return it != registry().end() ? &it->second : nullptr;
}

std::vector<const Scenario*> all_scenarios() {
  std::vector<const Scenario*> out;
  out.reserve(registry().size());
  for (const auto& [name, scenario] : registry()) out.push_back(&scenario);
  return out;  // std::map iteration is already name-sorted
}

OutputFormat parse_format(const std::string& text) {
  if (text == "text") return OutputFormat::kText;
  if (text == "csv") return OutputFormat::kCsv;
  if (text == "json") return OutputFormat::kJson;
  throw PreconditionError("unknown --format '" + text +
                          "' (expected text, csv, or json)");
}

const std::string& render(const RunResult& result, OutputFormat format,
                          std::string& storage) {
  switch (format) {
    case OutputFormat::kText:
      return result.text;
    case OutputFormat::kCsv:
      storage = result.to_csv();
      return storage;
    case OutputFormat::kJson:
      storage = result.to_json();
      return storage;
  }
  throw PreconditionError("invalid output format");
}

ArgParser& add_scenario_flags(ArgParser& args) {
  args.add_flag("format", "output format: text, csv, json", "text");
  args.add_bool("profile",
                "profile the run; prints a time-budget report to stderr");
  add_jobs_flag(args);
  add_sim_threads_flag(args);
  return add_seed_flag(args);
}

void run_scenario(const Scenario& scenario, const ArgParser& args) {
  set_global_sim_threads(resolve_sim_threads(args));
  Runner runner(resolve_jobs(args));
  std::optional<obs::Profiler> profiler;
  std::optional<obs::ProfilerScope> profiler_scope;
  if (args.has("profile")) {
    profiler.emplace();
    profiler_scope.emplace(*profiler);
  }
  const RunContext context{runner, parse_format(args.get("format")),
                           resolve_seed(args)};
  const RunResult result = scenario.run(context);
  profiler_scope.reset();
  std::string storage;
  std::cout << render(result, context.format, storage);
  if (profiler) {
    obs::ReportOptions options;
    options.subject = scenario.name;
    std::cerr << profiler->report(options).to_table();
  }
}

}  // namespace hetscale::run
