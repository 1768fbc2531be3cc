// hetscale_cli — the library's analyses from the command line.
//
//   hetscale_cli run     table3_ge_required_rank --format=json --jobs 8
//   hetscale_cli run     list
//   hetscale_cli scenarios spmv
//   hetscale_cli marked  --cluster "server:2,sunbladex3"
//   hetscale_cli solve   --algo ge --cluster "server:2,sunbladex3" --target 0.3
//   hetscale_cli curve   --algo mm --cluster "server:1,v210x3:1" --from 32 --to 512 --step 32
//   hetscale_cli series  --algo ge --ladder "2,4,8,16" --target 0.3
//   hetscale_cli predict --algo jacobi --ladder "2,4,8" --target 0.3
//   hetscale_cli fit     --algo ge --format json --jobs 8
//   hetscale_cli fit     spmv --format table
//   hetscale_cli analyze table4_ge_scalability --format json --top 5
//   hetscale_cli analyze --algo summa --cluster "sunbladex4" --n 128
//   hetscale_cli profile table2_ge_two_nodes --format json --out report.json
//   hetscale_cli profile --algo sort --cluster "sunbladex4" --n 4096
//                        --format table --trace-out sort.trace.json
//   hetscale_cli inject  --algo ge --cluster "sunbladex4" --n 256 --seed 7
//                        --slowdown 0.6 --loss 0.05 --crash-rate 0.5
//                        --checkpoint-interval 0.25
//
// Cluster grammar: comma-separated "<type>[xCOUNT][:CPUS]" with types
// server / sunblade / v210 (see machine/parse.hpp). Ladders name the
// paper's GE/MM ensembles by node count. `run` executes a registered
// scenario (the paper's tables and figures) on a --jobs-wide worker pool,
// through the same run::run_scenario the bench launchers use; solve /
// curve / series accept --jobs too. `profile` runs either a registered
// scenario or a single algorithm with instrumentation on and exports the
// hetscale.obs.report in --format json | prom | table; the single-run form
// also prints the per-rank utilization table on stderr and, with
// --trace-out, writes a Chrome trace. `analyze` runs the same subjects but
// exports the hetscale.obs.analysis document instead: critical-path
// attribution, the ranked communication matrix, and event-queue telemetry,
// in --format json | csv | table. Its output is byte-stable across --jobs
// and kernel pins.
#include <climits>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hetscale/machine/parse.hpp"
#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/marked/suite.hpp"
#include "hetscale/obs/analysis.hpp"
#include "hetscale/obs/report.hpp"
#include "hetscale/predict/models.hpp"
#include "hetscale/predict/probe.hpp"
#include "hetscale/fault/plan.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/run/scenario.hpp"
#include "hetscale/scal/fault_study.hpp"
#include "hetscale/scal/iso_solver.hpp"
#include "hetscale/scal/measure_store.hpp"
#include "hetscale/scal/profile.hpp"
#include "hetscale/scal/series.hpp"
#include "hetscale/scenarios/algo_registry.hpp"
#include "hetscale/scenarios/all.hpp"
#include "hetscale/scenarios/fault.hpp"
#include "hetscale/scenarios/zoo.hpp"
#include "hetscale/support/args.hpp"
#include "hetscale/support/csv.hpp"
#include "hetscale/support/table.hpp"

namespace {

using namespace hetscale;

std::unique_ptr<scal::ClusterCombination> make_combination(
    const std::string& algo, machine::Cluster cluster) {
  const scenarios::AlgoEntry& entry = scenarios::find_algo(algo);
  scal::ClusterCombination::Config config;
  config.cluster = std::move(cluster);
  config.with_data = false;
  const std::string name = algo + " on " + config.cluster.summary();
  return std::make_unique<scal::ClusterCombination>(name, std::move(config),
                                                    entry.spec);
}

/// --algo on --cluster: the ad-hoc subject of solve, curve, inject, profile
/// and analyze.
std::unique_ptr<scal::ClusterCombination> cluster_combination(
    const ArgParser& args) {
  return make_combination(args.get_or("algo", "ge"),
                          machine::parse_cluster(args.get("cluster")));
}

/// --ladder as ensemble node counts, each in [1, kMaxClusterNodes]; all are
/// checked before any ensemble is built.
std::vector<int> parse_ladder(const ArgParser& args) {
  std::vector<int> ladder;
  for (const auto& piece : split(args.get_or("ladder", "2,4,8"), ',')) {
    ladder.push_back(static_cast<int>(
        parse_int(piece, "--ladder entry", 1, machine::kMaxClusterNodes)));
  }
  return ladder;
}

/// Print the registered scenarios whose name or summary contains `filter`
/// (case-sensitive; all of them when empty). Returns 2 when none matches.
int print_scenarios(const std::string& filter) {
  scenarios::register_all_scenarios();
  Table table(filter.empty()
                  ? std::string("Registered scenarios")
                  : "Registered scenarios matching '" + filter + "'");
  table.set_header({"name", "summary"});
  int shown = 0;
  for (const run::Scenario* scenario : run::all_scenarios()) {
    if (!filter.empty() &&
        scenario->name.find(filter) == std::string::npos &&
        scenario->summary.find(filter) == std::string::npos) {
      continue;
    }
    table.add_row({scenario->name, scenario->summary});
    ++shown;
  }
  std::cout << table;
  if (shown == 0) {
    std::cout << "no scenario matches '" << filter << "'\n";
    return 2;
  }
  std::cout << shown << " scenario" << (shown == 1 ? "" : "s")
            << "; run one with: hetscale_cli run <name>\n";
  return 0;
}

/// The registered scenario `name`, or nullptr after telling the user where
/// the names are listed.
const run::Scenario* lookup_scenario(const std::string& name) {
  scenarios::register_all_scenarios();
  const run::Scenario* scenario = run::find_scenario(name);
  if (scenario == nullptr) {
    std::cerr << "error: unknown scenario '" << name
              << "' (try: hetscale_cli run list)\n";
  }
  return scenario;
}

/// `hetscale_cli scenarios [substring]` — the registry as a listing, with
/// an optional case-sensitive name/summary filter.
int cmd_scenarios(const ArgParser& args) {
  const auto& positional = args.positional();
  return print_scenarios(positional.size() > 1 ? positional[1] : "");
}

/// `hetscale_cli run <name>`; `run list` and a bare `run` print the
/// listing (a bare `run` exits 2, as a usage error).
int cmd_run(const ArgParser& args) {
  const auto& positional = args.positional();
  if (positional.size() < 2 || positional[1] == "list") {
    print_scenarios("");
    return positional.size() > 1 ? 0 : 2;
  }
  const run::Scenario* scenario = lookup_scenario(positional[1]);
  if (scenario == nullptr) return 2;
  run::run_scenario(*scenario, args);
  return 0;
}

int cmd_marked(const ArgParser& args) {
  const auto cluster = machine::parse_cluster(args.get("cluster"));
  Table table("Marked speeds (Definitions 1-2)");
  table.set_header({"rank", "node", "marked speed (Mflops)"});
  const auto speeds = marked::rank_marked_speeds(cluster);
  const auto processors = cluster.processors();
  for (std::size_t r = 0; r < speeds.size(); ++r) {
    table.add_row({std::to_string(r),
                   cluster.nodes()[static_cast<std::size_t>(
                                       processors[r].node)].name,
                   Table::fixed(speeds[r] / 1e6, 1)});
  }
  std::cout << table << "system marked speed C = "
            << Table::fixed(marked::system_marked_speed(cluster) / 1e6, 1)
            << " Mflops\n";
  return 0;
}

int cmd_solve(const ArgParser& args) {
  auto combo = cluster_combination(args);
  const double target = args.get_double("target", 0.3);
  run::Runner runner(resolve_jobs(args));
  scal::IsoSolveOptions options;
  options.n_min = args.get_int("nmin", options.n_min);
  const auto result =
      scal::required_problem_size(*combo, target, runner, options);
  if (!result.found) {
    std::cout << "E_s = " << target << " is unreachable on " << combo->name()
              << " (within N <= " << options.n_max << ")\n";
    return 1;
  }
  std::cout << combo->name() << ": smallest N with E_s >= " << target
            << " is N = " << result.n << " (measured E_s = "
            << Table::fixed(result.achieved_es, 3) << ")\n";
  return 0;
}

/// The most sizes one `curve` measures; each is a full simulation.
constexpr std::int64_t kMaxCurveSizes = 4096;

int cmd_curve(const ArgParser& args) {
  const auto from = args.get_int("from", 32);
  const auto to = args.get_int("to", 512);
  const auto step = args.get_int("step", 32);
  HETSCALE_REQUIRE(from >= 1 && to >= from && step >= 1,
                   "need 1 <= from <= to and step >= 1");
  // to - from cannot overflow once 1 <= from <= to.
  const std::int64_t count = (to - from) / step + 1;
  HETSCALE_REQUIRE(count <= kMaxCurveSizes,
                   "curve measures at most " + std::to_string(kMaxCurveSizes) +
                       " sizes; --from " + std::to_string(from) + " --to " +
                       std::to_string(to) + " --step " +
                       std::to_string(step) + " names " +
                       std::to_string(count));
  std::vector<std::int64_t> sizes(static_cast<std::size_t>(count));
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    sizes[i] = from + static_cast<std::int64_t>(i) * step;
  }
  auto combo = cluster_combination(args);
  run::Runner runner(resolve_jobs(args));
  const auto measured = combo->measure_many(sizes, runner);
  CsvWriter csv({"N", "seconds", "speed_mflops", "speed_efficiency"});
  for (const auto& m : measured) {
    csv.add_row({std::to_string(m.n), Table::fixed(m.seconds, 6),
                 Table::fixed(m.speed_flops / 1e6, 2),
                 Table::fixed(m.speed_efficiency, 4)});
  }
  std::cout << csv.str();
  return 0;
}

int cmd_series(const ArgParser& args) {
  const std::string algo = args.get_or("algo", "ge");
  const scenarios::AlgoEntry& entry = scenarios::find_algo(algo);
  const double target = args.get_double("target", entry.target_es);
  std::vector<std::unique_ptr<scal::ClusterCombination>> owned;
  std::vector<scal::Combination*> ptrs;
  for (const int nodes : parse_ladder(args)) {
    owned.push_back(make_combination(algo, entry.ensemble(nodes)));
    ptrs.push_back(owned.back().get());
  }
  run::Runner runner(resolve_jobs(args));
  const auto report = scal::scalability_series(ptrs, target, runner);
  Table table("Isospeed-efficiency scalability series (E_s = " +
              Table::num(target, 2) + ")");
  table.set_header({"system", "C (Mflops)", "N", "psi step"});
  for (std::size_t i = 0; i < report.points.size(); ++i) {
    const auto& point = report.points[i];
    table.add_row({point.system, Table::fixed(point.marked_speed / 1e6, 1),
                   point.found ? std::to_string(point.n) : "unreachable",
                   i == 0 ? "-" : Table::fixed(report.steps[i - 1].psi, 3)});
  }
  std::cout << table << "cumulative psi = "
            << Table::fixed(report.cumulative_psi(), 4) << '\n';
  return 0;
}

int cmd_predict(const ArgParser& args) {
  const std::string algo = args.get_or("algo", "ge");
  // Throws a loud PreconditionError for algorithms without an analytic
  // model (sort, summa, ...) — predict never silently falls back to GE.
  // The entry's model is the one the fit study scores; its target and
  // ensemble ladder are the ones `series` measures.
  const scenarios::AlgoEntry& entry = scenarios::find_zoo_algo(algo);
  const double target = args.get_double("target", entry.target_es);
  const auto comm = predict::probe_comm_model(
      predict::ProbeConfig{.node = machine::sunwulf::sunblade_spec()});
  Table table("Predicted " + algo +
              " operating points (probed parameters, paper §4.5)");
  table.set_header({"nodes", "predicted N"});
  for (const int nodes : parse_ladder(args)) {
    const auto system = predict::system_model_for(entry.ensemble(nodes), comm);
    table.add_row({std::to_string(nodes),
                   std::to_string(predict::predicted_required_size(
                       *entry.model, system, target))});
  }
  std::cout << table;
  return 0;
}

/// `hetscale_cli fit [algo]` — fit and cross-validate the model zoo on
/// measured efficiency points, ranked against the analytic prediction.
int cmd_fit(const ArgParser& args) {
  const auto& positional = args.positional();
  std::vector<const scenarios::AlgoEntry*> algos = scenarios::zoo_algos();
  if (positional.size() > 1) {
    algos = {&scenarios::find_zoo_algo(positional[1])};
  } else if (args.has("algo")) {
    algos = {&scenarios::find_zoo_algo(args.get("algo"))};
  }
  run::Runner runner(resolve_jobs(args));
  const auto report = scenarios::build_fit_report(algos, runner);
  const std::string format = args.get_or("format", "table");
  if (format == "json") {
    report.to_json(std::cout);
  } else if (format == "csv") {
    std::cout << report.to_csv();
  } else if (format == "table") {
    std::cout << report.to_table();
  } else {
    throw PreconditionError("fit supports --format json, csv, or table");
  }
  return 0;
}

int cmd_inject(const ArgParser& args) {
  auto combo = cluster_combination(args);
  const auto n = args.get_int("n", 256);
  const auto seed = resolve_seed(args);
  const int ranks = combo->processor_count();

  // Assemble the plan spec from the flags, all checked before the healthy
  // run; each knob is off by default.
  fault::PlanSpec spec;
  const double slowdown = args.get_double("slowdown", 1.0);
  HETSCALE_REQUIRE(slowdown > 0.0 && slowdown <= 1.0,
                   "--slowdown must be in (0, 1]");
  if (slowdown < 1.0) {
    const fault::PlanSpec preset = scenarios::degraded_plan_spec();
    spec.slowdown_probability = 1.0;
    spec.slowdown_factor = slowdown;
    spec.slowdown_duty = preset.slowdown_duty;
    spec.slowdown_period_s = preset.slowdown_period_s;
  }
  spec.loss.drop_probability = args.get_double("loss", 0.0);
  spec.crash_rate_per_s = args.get_double("crash-rate", 0.0);
  HETSCALE_REQUIRE(spec.crash_rate_per_s >= 0.0,
                   "--crash-rate must be >= 0 (0 disables crashes)");
  const double interval = args.get_double("checkpoint-interval", 0.0);
  HETSCALE_REQUIRE(interval >= 0.0,
                   "--checkpoint-interval must be >= 0 (0 disables "
                   "checkpoints)");
  if (interval > 0.0) {
    spec.checkpoint.interval_s = interval;
    spec.checkpoint.bytes = 8.0 * static_cast<double>(n) *
                            static_cast<double>(n) /
                            static_cast<double>(ranks);
    spec.checkpoint.flops =
        static_cast<double>(n) * static_cast<double>(n);
  }
  // Event generation and the restart delay scale with the healthy runtime:
  // crashes scheduled far beyond the run would otherwise chain (each
  // restart pushes the run past the next scheduled crash) into a rework
  // cascade that says nothing about the combination.
  const double t_healthy = combo->measure(n).seconds;
  spec.horizon_s = 20.0 * t_healthy;
  spec.restart_delay_s = 0.1 * t_healthy;
  const auto plan = fault::FaultPlan::generate(seed, spec, ranks);
  const auto d = scal::decompose_faults(*combo, n, plan);

  std::cout << "plan: " << plan.summary() << '\n';
  Table table("Fault overhead decomposition (" + combo->name() +
              ", N = " + std::to_string(n) + ")");
  table.set_header({"quantity", "healthy", "faulty"});
  table.add_row({"elapsed (s)", Table::fixed(d.healthy.seconds, 4),
                 Table::fixed(d.faulty.measurement.seconds, 4)});
  table.add_row({"speed efficiency E_s",
                 Table::fixed(d.healthy.speed_efficiency, 4),
                 Table::fixed(d.faulty.measurement.speed_efficiency, 4)});
  table.add_row({"critical-path overhead (s)",
                 Table::fixed(d.healthy.overhead_s, 4),
                 Table::fixed(d.faulty.measurement.overhead_s, 4)});
  std::cout << table;

  const auto& totals = d.faulty.fault_totals;
  Table faults("Injected fault time (summed over ranks)");
  faults.set_header({"cause", "seconds", "count"});
  faults.add_row({"slowdown stretch", Table::fixed(totals.slowdown_s, 4),
                  "-"});
  faults.add_row({"checkpoints", Table::fixed(totals.checkpoint_s, 4),
                  std::to_string(totals.checkpoints)});
  faults.add_row({"crash rework", Table::fixed(totals.rework_s, 4),
                  std::to_string(totals.crashes)});
  faults.add_row({"retry waits", Table::fixed(totals.retry_s, 4),
                  std::to_string(totals.retries)});
  std::cout << faults;
  std::cout << "fault overhead = " << Table::fixed(d.fault_overhead_s, 4)
            << " s (attributed " << Table::fixed(d.attributed_s, 4)
            << " s on the critical path, residual "
            << Table::fixed(d.residual_s, 4)
            << " s of blocking/contention)\n"
            << "effective marked speed = "
            << Table::fixed(d.faulty.effective_marked_speed / 1e6, 1)
            << " Mflops (healthy C = "
            << Table::fixed(combo->marked_speed() / 1e6, 1)
            << "), efficiency retention = "
            << Table::fixed(d.efficiency_retention, 4) << '\n';
  return 0;
}

/// Write `text` to the file --`flag` names, or to stdout without the flag.
void write_output(const ArgParser& args, const std::string& flag,
                  const std::string& text) {
  if (!args.has(flag)) {
    std::cout << text;
    return;
  }
  std::ofstream out(args.get(flag));
  HETSCALE_REQUIRE(out.good(), "cannot open --" + flag + " file for writing");
  out << text;
}

/// Run `scenario` with instrumentation on, for `profile` and `analyze`:
/// machines built while the scope is live publish their RunProfile into
/// `profiler`. The scenario's own artifact is discarded — the product of
/// both commands is what they derive from the profiler.
void profile_scenario(const run::Scenario& scenario, const ArgParser& args,
                      obs::Profiler& profiler) {
  obs::ProfilerScope scope(profiler);
  run::Runner runner(resolve_jobs(args));
  const run::RunContext context{runner, run::OutputFormat::kText,
                                resolve_seed(args)};
  (void)scenario.run(context);
}

/// One instrumented run of --algo on --cluster at --n, the ad-hoc subject of
/// `command` (profile or analyze), added to `profiler`. Returns the run;
/// `subject` gets the combination's name.
scal::ProfiledRun profile_adhoc(const std::string& command,
                                const ArgParser& args,
                                obs::Profiler& profiler,
                                std::string& subject) {
  HETSCALE_REQUIRE(args.has("cluster"),
                   command +
                       " needs a scenario name or --cluster (run "
                       "hetscale_cli with no arguments for usage)");
  const auto combo = cluster_combination(args);
  scal::ProfiledRun profiled = scal::profile_run(*combo, args.get_int("n", 64));
  profiler.add_run(profiled.profile);
  subject = combo->name();
  return profiled;
}

/// `hetscale_cli profile <scenario> | --algo ... --cluster ...` — the
/// hetscale.obs.report of an instrumented run in --format json | prom |
/// table, to --out or stdout.
int cmd_profile(const ArgParser& args) {
  const auto& positional = args.positional();
  obs::Profiler profiler;
  obs::ReportOptions options;
  if (positional.size() > 1) {
    const run::Scenario* scenario = lookup_scenario(positional[1]);
    if (scenario == nullptr) return 2;
    profile_scenario(*scenario, args, profiler);
    options.subject = scenario->name;
  } else {
    const scal::ProfiledRun profiled =
        profile_adhoc("profile", args, profiler, options.subject);
    if (args.has("trace-out")) {
      write_output(args, "trace-out", profiled.chrome_trace);
      std::cerr << "chrome trace written to " << args.get("trace-out")
                << " (open in chrome://tracing)\n";
    }
    std::cerr << profiled.utilization;
  }
  const obs::Report report = profiler.report(options);
  const std::string format = args.get_or("format", "table");
  std::ostringstream os;
  if (format == "json") {
    report.to_json(os);
  } else if (format == "prom") {
    report.to_prometheus(os);
  } else if (format == "table") {
    os << report.to_table();
  } else {
    throw PreconditionError("profile supports --format json, prom, or table");
  }
  write_output(args, "out", os.str());
  return 0;
}

/// `hetscale_cli analyze <scenario> | --algo ... --cluster ...` — the
/// communication observatory: critical-path attribution, comm-matrix
/// hotspots, and ladder-queue telemetry for an instrumented run.
int cmd_analyze(const ArgParser& args) {
  obs::AnalysisOptions options;
  options.top = static_cast<int>(args.get_int("top", options.top, 0, INT_MAX));
  const auto& positional = args.positional();
  obs::Profiler profiler;
  if (positional.size() > 1) {
    const run::Scenario* scenario = lookup_scenario(positional[1]);
    if (scenario == nullptr) return 2;
    profile_scenario(*scenario, args, profiler);
    options.subject = scenario->name;
  } else {
    (void)profile_adhoc("analyze", args, profiler, options.subject);
  }
  const obs::Analysis analysis(profiler, options);
  const std::string format = args.get_or("format", "table");
  std::ostringstream os;
  if (format == "json") {
    analysis.to_json(os);
  } else if (format == "csv") {
    analysis.to_csv(os);
  } else if (format == "table" || format == "text") {
    os << analysis.to_text();
  } else {
    throw PreconditionError("analyze supports --format json, csv, or table");
  }
  write_output(args, "out", os.str());
  return 0;
}

int dispatch(const std::string& command, const ArgParser& args) {
  if (command == "run") return cmd_run(args);
  if (command == "scenarios") return cmd_scenarios(args);
  if (command == "marked") return cmd_marked(args);
  if (command == "solve") return cmd_solve(args);
  if (command == "curve") return cmd_curve(args);
  if (command == "series") return cmd_series(args);
  if (command == "predict") return cmd_predict(args);
  if (command == "fit") return cmd_fit(args);
  if (command == "profile") return cmd_profile(args);
  if (command == "analyze") return cmd_analyze(args);
  if (command == "inject") return cmd_inject(args);
  std::cout << "hetscale_cli — isospeed-efficiency scalability analyses\n"
            << "commands: run | scenarios | marked | solve | curve | series "
               "| predict | fit | profile | analyze | inject\n\n"
            << args.help("hetscale_cli <command>");
  return command.empty() ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args;
  args.add_flag("cluster", "cluster description, e.g. \"server:2,sunbladex3\"")
      .add_flag("algo", "algorithm: " + scenarios::algo_names(), "ge")
      .add_flag("target", "target speed-efficiency", "0.3")
      .add_flag("ladder", "comma-separated ensemble node counts", "2,4,8")
      .add_flag("from", "curve: first N", "32")
      .add_flag("to", "curve: last N", "512")
      .add_flag("step", "curve: N increment", "32")
      .add_flag("n", "profile/analyze: problem size", "64")
      .add_flag("nmin", "solve: search floor", "4")
      .add_flag("out", "profile/analyze: report file")
      .add_flag("trace-out", "profile: chrome-trace output file")
      .add_flag("format",
                "run: text, csv, json; fit: json, csv, table; profile: "
                "json, prom, table; analyze: json, csv, table",
                "text")
      .add_flag("top", "analyze: hotspot edges per ranking", "10")
      .add_bool("profile", "run: also print the obs report to stderr")
      .add_flag("slowdown", "inject: straggler compute-rate factor", "1.0")
      .add_flag("loss", "inject: per-transmission drop probability", "0.0")
      .add_flag("crash-rate", "inject: crashes per second per rank", "0.0")
      .add_flag("checkpoint-interval", "inject: checkpoint period (s)",
                "0.0")
      .add_bool("no-measure-cache",
                "disable the cross-scenario measurement store")
      .add_flag("measure-cache",
                "measurement-store file: loaded before the command, "
                "saved after");
  add_jobs_flag(args);
  add_sim_threads_flag(args);
  add_seed_flag(args);
  try {
    args.parse(argc - 1, argv + 1);
    set_global_sim_threads(resolve_sim_threads(args));
    auto& store = scal::MeasurementStore::global();
    if (args.has("no-measure-cache")) store.set_enabled(false);
    const std::string cache_path = args.get_or("measure-cache", "");
    if (store.enabled() && !cache_path.empty()) {
      // A missing file is the first run; a malformed one starts empty.
      std::ifstream cache(cache_path);
      std::string why;
      if (cache.good() && !store.load(cache, &why)) {
        std::cerr << "warning: ignoring measurement cache '" << cache_path
                  << "': " << why << '\n';
      }
    }
    const auto& positional = args.positional();
    const std::string command = positional.empty() ? "" : positional.front();
    const int code = dispatch(command, args);
    if (store.enabled() && !cache_path.empty()) {
      if (!store.save_file(cache_path)) {
        std::cerr << "warning: could not write measurement cache to '"
                  << cache_path << "'\n";
      }
    }
    return code;
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }
}
