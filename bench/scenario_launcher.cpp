// Launcher for one registered scenario, built once per scenario name
// (bench/CMakeLists.txt compiles the name in as HETSCALE_SCENARIO), so
// `build/bench/<name>` prints what `hetscale_cli run <name>` prints and
// takes the same --format, --profile, --jobs, --sim-threads and --seed.
#include <exception>
#include <iostream>

#include "hetscale/run/scenario.hpp"
#include "hetscale/scenarios/all.hpp"
#include "hetscale/support/args.hpp"
#include "hetscale/support/error.hpp"

int main(int argc, char** argv) {
  using namespace hetscale;
  try {
    ArgParser args;
    run::add_scenario_flags(args).add_bool("help", "show this help");
    args.parse(argc - 1, argv + 1);

    scenarios::register_all_scenarios();
    const run::Scenario* scenario = run::find_scenario(HETSCALE_SCENARIO);
    HETSCALE_REQUIRE(scenario != nullptr,
                     "scenario '" HETSCALE_SCENARIO "' is not registered");
    if (args.has("help")) {
      std::cout << scenario->name << " — " << scenario->summary << "\n\n"
                << args.help(scenario->name);
      return 0;
    }
    run::run_scenario(*scenario, args);
    return 0;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
