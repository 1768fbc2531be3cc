// hetscale_benchmark — runs one benchmark workload in this process.
//
//   hetscale_benchmark <workload> [--seed N] [--trace FILE] [--self-test]
//
// Workloads (see benchmark/README.md for why each exists):
//   paper_tables     seven paper scenarios, jobs 4, sim-threads 1, store on
//   large_p          large_p_scalability, jobs 1, sim-threads 4
//   large_p_analyze  the large-p GE@1024 rung under an obs profiler,
//                    followed by the Analysis and Report JSON exports
//   real_data        GE and MM at n = 2048 with real arithmetic
//
// The driver calls only public library entry points and times them from
// outside. setup_s runs from main() to the first simulating call, wall_s
// from there to the last export. Every output is checked; the checks feed
// the benchmark's fail ratio. With --trace the workload records spans
// around each library call, then runs its layer probes, and the spans are
// written to FILE as a Chrome trace. --seed feeds only real_data's
// matrices. --self-test perturbs the first expected value, so at least one
// check must fail.
//
// Prints one JSON object on stdout. Exit code 0 when every check passed.
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hetscale/algos/ge.hpp"
#include "hetscale/algos/jacobi.hpp"
#include "hetscale/algos/mm.hpp"
#include "hetscale/kernels/dispatch.hpp"
#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/marked/suite.hpp"
#include "hetscale/net/switched.hpp"
#include "hetscale/numeric/matrix.hpp"
#include "hetscale/obs/analysis.hpp"
#include "hetscale/obs/profiler.hpp"
#include "hetscale/obs/report.hpp"
#include "hetscale/run/result.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/run/scenario.hpp"
#include "hetscale/scal/measure_store.hpp"
#include "hetscale/scenarios/large_p.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/args.hpp"
#include "hetscale/support/rng.hpp"
#include "timed_network.hpp"
#include "trace.hpp"

namespace hetscale::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// Most threads any workload uses (jobs or sim-threads); clamped further to
/// the CPUs this process may run on.
constexpr int kMaxThreads = 4;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Host seconds taken by `fn()`.
template <class Fn>
double timed(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return seconds_since(start);
}

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  HETSCALE_REQUIRE(in.good(), "cannot read " + path);
  std::ostringstream content;
  content << in.rdbuf();
  return content.str();
}

std::string golden(const std::string& scenario) {
  return read_file(std::string(HETSCALE_BENCH_GOLDEN_DIR) + "/" + scenario +
                   ".csv");
}

std::string json_string(const std::string& text) {
  std::ostringstream os;
  os << '"';
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      os << "\\u" << std::hex << std::setw(4) << std::setfill('0')
         << static_cast<int>(c) << std::dec << std::setfill(' ');
    } else {
      os << c;
    }
  }
  os << '"';
  return os.str();
}

// ---------------------------------------------------------------------------
// Checks — every output comparison the benchmark makes.

class Checks {
 public:
  explicit Checks(bool self_test) : self_test_(self_test) {}

  /// How many checks this workload makes when nothing throws; an exception
  /// fails all of them.
  void plan(int count) { planned_ += count; }

  void expect_equal(const std::string& what, const std::string& actual,
                    std::string expected) {
    if (perturb()) expected += '\x01';
    record(what, actual == expected);
  }

  void expect_equal(const std::string& what, std::uint64_t actual,
                    std::uint64_t expected) {
    if (perturb()) ++expected;
    record(what, actual == expected);
  }

  /// Bit-for-bit equality of two simulated times.
  void expect_same_bits(const std::string& what, double actual,
                        double expected) {
    if (perturb()) {
      expected = std::nextafter(expected, std::numeric_limits<double>::max());
    }
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, &actual, sizeof a);
    std::memcpy(&b, &expected, sizeof b);
    record(what, a == b);
  }

  void expect_near(const std::string& what, double actual, double expected,
                   double relative) {
    if (perturb()) expected *= 1.0 + 1e3 * relative;
    record(what, std::abs(actual - expected) <=
                     relative * std::max(std::abs(expected), 1e-300));
  }

  void expect_at_most(const std::string& what, double actual, double limit) {
    if (perturb()) limit = -1.0;
    record(what, actual <= limit);
  }

  /// `line` must start some line of `text`.
  void expect_line(const std::string& what, const std::string& text,
                   std::string line) {
    if (perturb()) line += '\x01';
    record(what, ("\n" + text).find("\n" + line) != std::string::npos);
  }

  void fail_all(const std::string& why) {
    attempted_ = std::max(attempted_, planned_);
    failed_ = attempted_;
    failures_.push_back("exception: " + why);
  }

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  bool perturb() const { return self_test_ && attempted_ == 0; }

  void record(const std::string& what, bool ok) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      failures_.push_back(what);
    }
  }

  bool self_test_;
  int planned_ = 0;
  int attempted_ = 0;
  int failed_ = 0;
  std::vector<std::string> failures_;
};

// ---------------------------------------------------------------------------
// One workload run: options, timers, checks, and the numbers it reports.

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  std::string trace_path;
  bool self_test = false;
};

struct Run {
  Run(const Options& opts, Clock::time_point main_start)
      : options(opts),
        threads(std::min(kMaxThreads, affinity_cpus())),
        tracer(!opts.trace_path.empty(),
               opts.workload + "/seed=" + std::to_string(opts.seed)),
        checks(opts.self_test),
        start(main_start) {}

  /// Marks the first simulating call: set-up ends, the timed work begins.
  void begin_work() {
    work_start = Clock::now();
    setup_s = std::chrono::duration<double>(work_start - start).count();
  }

  /// Marks the end of the last export.
  void end_work() {
    wall_s = seconds_since(work_start);
    rss_mb = peak_rss_mb();
  }

  const Options& options;
  const int threads;
  Tracer tracer;
  Checks checks;
  Clock::time_point start;
  Clock::time_point work_start;
  double setup_s = 0.0;
  double wall_s = 0.0;
  double rss_mb = 0.0;
  std::map<std::string, double> layer;  ///< per-layer metrics (--trace)
};

// ---------------------------------------------------------------------------
// Scenario workloads: paper_tables and large_p.

const char* const kPaperTables[] = {
    "table2_ge_two_nodes",        "table3_ge_required_rank",
    "table4_ge_scalability",      "table5_mm_scalability",
    "table7_ge_predicted_scalability", "fig1_ge_speed_efficiency",
    "fig2_mm_speed_efficiency"};

/// What vmpi::Machine::switched builds, constructed in place: a Machine is
/// pinned once built, so it is held by pointer rather than moved.
std::unique_ptr<vmpi::Machine> switched_machine(
    const machine::Cluster& cluster, const vmpi::CollectiveTuning& tuning,
    std::unique_ptr<net::Network> network =
        std::make_unique<net::SwitchedNetwork>(net::NetworkParams{})) {
  return std::make_unique<vmpi::Machine>(cluster, std::move(network), tuning);
}

const run::Scenario& find(const std::string& name) {
  const run::Scenario* scenario = run::find_scenario(name);
  HETSCALE_REQUIRE(scenario != nullptr, "unknown scenario " + name);
  return *scenario;
}

/// Run `scenario` and render its CSV, under one span each.
std::string run_and_render(Run& run, const run::Scenario& scenario,
                           run::Runner& runner) {
  const run::RunContext context{runner, run::OutputFormat::kCsv, 0};
  run::RunResult result;
  {
    auto span = run.tracer.span("Scenario::run " + scenario.name, "run");
    result = scenario.run(context);
  }
  auto span = run.tracer.span("render " + scenario.name, "run");
  std::string storage;
  return run::render(result, run::OutputFormat::kCsv, storage);
}

void paper_tables(Run& run) {
  run.checks.plan(static_cast<int>(std::size(kPaperTables)));
  std::vector<const run::Scenario*> scenarios;
  {
    auto span = run.tracer.span("register_paper_scenarios", "scenarios");
    scenarios::register_paper_scenarios();
    for (const char* name : kPaperTables) scenarios.push_back(&find(name));
  }
  set_global_sim_threads(1);
  auto& store = scal::MeasurementStore::global();
  store.set_enabled(true);
  std::unique_ptr<run::Runner> runner;
  {
    auto span = run.tracer.span("Runner", "run");
    runner = std::make_unique<run::Runner>(run.threads);
  }

  run.begin_work();
  std::vector<std::string> csv;
  double scenario_s = 0.0;
  for (const run::Scenario* scenario : scenarios) {
    scenario_s += timed([&] {
      csv.push_back(run_and_render(run, *scenario, *runner));
    });
  }
  run.end_work();

  {
    auto span = run.tracer.span("golden compare", "check");
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
      run.checks.expect_equal(scenarios[i]->name + " matches golden", csv[i],
                              golden(scenarios[i]->name));
    }
  }
  if (!run.tracer.enabled()) return;

  // scal: the store's view of the run just measured.
  run.layer["scal.simulations"] = static_cast<double>(store.size());
  run.layer["scal.store_hits"] = static_cast<double>(store.hits());
  run.layer["scal.ms_per_simulation"] =
      1e3 * scenario_s /
      static_cast<double>(std::max<std::size_t>(1, store.size()));

  // run: table4 from a cold store at jobs 1 and at full jobs.
  auto span = run.tracer.span("layer probes", "benchmark");
  run.checks.plan(2);
  const run::Scenario& table4 = find("table4_ge_scalability");
  const std::string expected = golden(table4.name);
  double jobs_s[2] = {0.0, 0.0};
  const int jobs[2] = {1, run.threads};
  for (int i = 0; i < 2; ++i) {
    store.clear();
    run::Runner probe_runner(jobs[i]);
    std::string out;
    jobs_s[i] = timed([&] { out = run_and_render(run, table4, probe_runner); });
    run.checks.expect_equal(
        "table4 at jobs " + std::to_string(jobs[i]) + " matches golden", out,
        expected);
  }
  run.layer["run.parallel_speedup"] = jobs_s[0] / jobs_s[1];
}

/// One large-p golden point replayed on a driver-owned machine. The sizes
/// mirror scenarios/large_p.cpp; the golden row check pins them.
struct Rung {
  const char* name;
  const char* workload;  ///< golden `workload` column: "ge" or "jacobi"
  int ranks;
  std::int64_t n;
};

constexpr std::int64_t kJacobiSweeps = 5;
const Rung kRungs[] = {{"ge_p1024", "ge", 1024, (1 << 20) / 1024},
                       {"ge_p4096", "ge", 4096, (1 << 20) / 4096},
                       {"jacobi_p4096", "jacobi", 4096, 4 * 4096 + 2}};

struct Replay {
  vmpi::RunResult result;
  double work_flops = 0.0;
  double run_s = 0.0;  ///< host seconds inside run_parallel_*
  std::uint64_t events = 0;
  std::uint64_t transfers = 0;  ///< TimedNetwork only
  double net_host_s = 0.0;      ///< TimedNetwork only
};

Replay replay(Run& run, const Rung& rung, const machine::Cluster& cluster,
              const std::vector<double>& speeds, int sim_threads,
              bool timed_network) {
  std::unique_ptr<net::Network> network =
      std::make_unique<net::SwitchedNetwork>(net::NetworkParams{});
  TimedNetwork* timer = nullptr;
  if (timed_network) {
    auto decorated = std::make_unique<TimedNetwork>(std::move(network));
    timer = decorated.get();
    network = std::move(decorated);
  }
  const auto machine = switched_machine(
      cluster, vmpi::CollectiveTuning::tree(), std::move(network));
  machine->set_sim_threads(sim_threads);

  Replay out;
  const std::string label = std::string("run_parallel_") + rung.workload +
                            " " + rung.name + " threads=" +
                            std::to_string(sim_threads) +
                            (timed_network ? " timed-net" : "");
  auto span = run.tracer.span(label, "algos");
  out.run_s = timed([&] {
    if (std::string(rung.workload) == "ge") {
      algos::GeOptions options;
      options.n = rung.n;
      options.with_data = false;
      options.speeds = speeds;
      auto result = algos::run_parallel_ge(*machine, options);
      out.result = std::move(result.run);
      out.work_flops = result.work_flops;
    } else {
      algos::JacobiOptions options;
      options.n = rung.n;
      options.sweeps = kJacobiSweeps;
      options.with_data = false;
      options.speeds = speeds;
      auto result = algos::run_parallel_jacobi(*machine, options);
      out.result = std::move(result.run);
      out.work_flops = result.work_flops;
    }
  });
  out.events = machine->events_processed();
  if (timer != nullptr) {
    out.transfers = timer->transfers();
    out.net_host_s = timer->host_s();
  }
  return out;
}

/// The golden CSV prefix "workload,p,n,work_flops,t_sim_s" of one point.
std::string golden_prefix(const char* workload, int ranks, std::int64_t n,
                          double work_flops, double elapsed) {
  return std::string(workload) + "," + std::to_string(ranks) + "," +
         std::to_string(n) + "," + run::Value::real(work_flops, 0).text() +
         "," + run::Value::real(elapsed, 4).text() + ",";
}

/// des / vmpi / net probes: each golden rung at 1 and at full sim-threads,
/// then once more at 1 thread on the timing decorator.
void large_p_probes(Run& run, const std::string& golden_csv) {
  auto probes = run.tracer.span("layer probes", "benchmark");
  run.checks.plan(3 * static_cast<int>(std::size(kRungs)));
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  double bytes = 0.0;
  double sequential_s = 0.0;
  double parallel_s = 0.0;
  std::uint64_t transfers = 0;
  double net_host_s = 0.0;
  double timed_run_s = 0.0;
  for (const Rung& rung : kRungs) {
    machine::Cluster cluster;
    std::vector<double> speeds;
    {
      auto span = run.tracer.span(std::string("build ") + rung.name, "machine");
      cluster = scenarios::large_p_cluster(rung.ranks);
      speeds = marked::rank_marked_speeds(cluster);
    }
    const Replay one = replay(run, rung, cluster, speeds, 1, false);
    const Replay many = replay(run, rung, cluster, speeds, run.threads, false);
    const Replay decorated = replay(run, rung, cluster, speeds, 1, true);

    auto span = run.tracer.span(std::string("check ") + rung.name, "check");
    run.checks.expect_line(
        std::string(rung.name) + " replay matches golden row", golden_csv,
        golden_prefix(rung.workload, rung.ranks, rung.n, one.work_flops,
                      one.result.elapsed));
    run.checks.expect_same_bits(
        std::string(rung.name) + " elapsed independent of sim-threads",
        many.result.elapsed, one.result.elapsed);
    run.checks.expect_same_bits(
        std::string(rung.name) + " elapsed unchanged by the timing decorator",
        decorated.result.elapsed, one.result.elapsed);

    run.layer[std::string("des.parallel_speedup.") + rung.name] =
        one.run_s / many.run_s;
    events += many.events;
    messages += many.result.network.messages;
    bytes += many.result.network.bytes;
    sequential_s += one.run_s;
    parallel_s += many.run_s;
    transfers += decorated.transfers;
    net_host_s += decorated.net_host_s;
    timed_run_s += decorated.run_s;
  }
  run.layer["des.events"] = static_cast<double>(events);
  run.layer["des.events_per_s"] = static_cast<double>(events) / parallel_s;
  run.layer["vmpi.messages"] = static_cast<double>(messages);
  run.layer["vmpi.bytes"] = bytes;
  run.layer["vmpi.host_ns_per_msg"] =
      1e9 * sequential_s / static_cast<double>(messages);
  run.layer["net.transfers"] = static_cast<double>(transfers);
  run.layer["net.host_s"] = net_host_s;
  run.layer["net.share"] = net_host_s / timed_run_s;
}

void large_p(Run& run) {
  run.checks.plan(1);
  const run::Scenario* scenario = nullptr;
  {
    auto span = run.tracer.span("register_large_p_scenarios", "scenarios");
    scenarios::register_large_p_scenarios();
    scenario = &find("large_p_scalability");
  }
  set_global_sim_threads(run.threads);
  scal::MeasurementStore::global().set_enabled(true);
  run::Runner runner(1);

  run.begin_work();
  const std::string csv = run_and_render(run, *scenario, runner);
  run.end_work();

  const std::string expected = golden(scenario->name);
  {
    auto span = run.tracer.span("golden compare", "check");
    run.checks.expect_equal(scenario->name + " matches golden", csv, expected);
  }
  if (run.tracer.enabled()) large_p_probes(run, expected);
}

// ---------------------------------------------------------------------------
// large_p_analyze: the GE@1024 rung under an obs profiler.

void large_p_analyze(Run& run) {
  run.checks.plan(3);
  const Rung& rung = kRungs[0];
  set_global_sim_threads(run.threads);
  machine::Cluster cluster;
  std::vector<double> speeds;
  {
    auto span = run.tracer.span("large_p_cluster", "machine");
    cluster = scenarios::large_p_cluster(rung.ranks);
  }
  {
    auto span = run.tracer.span("rank_marked_speeds", "marked");
    speeds = marked::rank_marked_speeds(cluster);
  }
  obs::Profiler profiler;
  algos::GeResult result;
  double profiled_s = 0.0;
  std::unique_ptr<obs::Analysis> analysis;
  {
    // Machines built while the scope is live publish their RunProfile.
    obs::ProfilerScope scope(profiler);
    std::unique_ptr<vmpi::Machine> machine;
    const double build_s = timed([&] {
      auto span = run.tracer.span("Machine", "vmpi");
      machine = switched_machine(cluster, vmpi::CollectiveTuning::tree());
    });
    run.layer["vmpi.machine_build_s"] = build_s;

    run.begin_work();
    algos::GeOptions options;
    options.n = rung.n;
    options.with_data = false;
    options.speeds = speeds;
    profiled_s = timed([&] {
      auto span = run.tracer.span("run_parallel_ge ge_p1024 profiled", "algos");
      result = algos::run_parallel_ge(*machine, options);
    });
  }
  const double export_s = timed([&] {
    obs::AnalysisOptions analysis_options;
    analysis_options.subject = rung.name;
    obs::ReportOptions report_options;
    report_options.subject = rung.name;
    auto span = run.tracer.span("analysis + report export", "obs");
    analysis = std::make_unique<obs::Analysis>(profiler, analysis_options);
    std::ostringstream json;
    analysis->to_json(json);
    obs::Report(profiler, report_options).to_json(json);
  });
  run.end_work();

  {
    auto span = run.tracer.span("analysis checks", "check");
    run.checks.expect_line(
        "profiled elapsed matches golden ge,1024 row",
        golden("large_p_scalability"),
        golden_prefix(rung.workload, rung.ranks, rung.n, result.work_flops,
                      result.run.elapsed));
    run.checks.expect_near("critical path sums to elapsed",
                           analysis->critical_path().total_s(),
                           result.run.elapsed, 1e-9);
    std::uint64_t cell_messages = 0;
    for (const obs::CommCell& cell : analysis->comm_cells()) {
      cell_messages += cell.messages;
    }
    run.checks.expect_equal("analysis messages equal vmpi messages",
                            cell_messages, result.run.network.messages);
  }
  if (!run.tracer.enabled()) return;

  run.layer["des.queue_rebuilds"] =
      static_cast<double>(analysis->des_queue().rebuilds);
  run.layer["des.queue_far_inserts"] =
      static_cast<double>(analysis->des_queue().far_inserts);
  run.layer["des.frame_live_peak"] =
      static_cast<double>(analysis->frame_live_peak());
  run.layer["obs.export_s"] = export_s;

  auto probes = run.tracer.span("layer probes", "benchmark");
  run.checks.plan(1);
  const Replay twin = replay(run, rung, cluster, speeds, run.threads, false);
  run.checks.expect_same_bits("unprofiled twin elapsed equals profiled",
                              twin.result.elapsed, result.run.elapsed);
  run.layer["obs.overhead_ratio"] = profiled_s / twin.run_s;
}

// ---------------------------------------------------------------------------
// real_data: GE and MM with real arithmetic on the paper's ensembles.

constexpr std::int64_t kRealDataN = 2048;
constexpr int kRealDataNodes = 8;

/// The paper's machine shape: switched fabric, flat collectives.
std::unique_ptr<vmpi::Machine> paper_machine(const machine::Cluster& cluster) {
  return switched_machine(cluster, vmpi::CollectiveTuning::legacy_flat());
}

void real_data(Run& run) {
  run.checks.plan(4);
  set_global_sim_threads(1);
  SplitMix64 seeds(run.options.seed);
  algos::GeOptions ge_options;
  ge_options.n = kRealDataN;
  ge_options.seed = seeds.next();
  algos::MmOptions mm_options;
  mm_options.n = kRealDataN;
  mm_options.seed = seeds.next();
  std::unique_ptr<vmpi::Machine> ge_machine;
  std::unique_ptr<vmpi::Machine> mm_machine;
  machine::Cluster ge_cluster;
  machine::Cluster mm_cluster;
  {
    auto span = run.tracer.span("sunwulf ensembles", "machine");
    ge_cluster = machine::sunwulf::ge_ensemble(kRealDataNodes);
    mm_cluster = machine::sunwulf::mm_ensemble(kRealDataNodes);
  }
  {
    auto span = run.tracer.span("rank_marked_speeds", "marked");
    ge_options.speeds = marked::rank_marked_speeds(ge_cluster);
    mm_options.speeds = marked::rank_marked_speeds(mm_cluster);
  }
  {
    auto span = run.tracer.span("Machine", "vmpi");
    ge_machine = paper_machine(ge_cluster);
    mm_machine = paper_machine(mm_cluster);
  }

  run.begin_work();
  algos::GeResult ge;
  algos::MmResult mm;
  const double ge_s = timed([&] {
    auto span = run.tracer.span("run_parallel_ge with data", "algos");
    ge = algos::run_parallel_ge(*ge_machine, ge_options);
  });
  const double mm_s = timed([&] {
    auto span = run.tracer.span("run_parallel_mm with data", "algos");
    mm = algos::run_parallel_mm(*mm_machine, mm_options);
  });
  run.end_work();

  // Timing-only twins: same machines and sizes, no host arithmetic.
  ge_options.with_data = false;
  mm_options.with_data = false;
  algos::GeResult ge_twin;
  algos::MmResult mm_twin;
  const auto ge_twin_machine = paper_machine(ge_cluster);
  const auto mm_twin_machine = paper_machine(mm_cluster);
  const double ge_twin_s = timed([&] {
    auto span = run.tracer.span("run_parallel_ge timing-only", "algos");
    ge_twin = algos::run_parallel_ge(*ge_twin_machine, ge_options);
  });
  const double mm_twin_s = timed([&] {
    auto span = run.tracer.span("run_parallel_mm timing-only", "algos");
    mm_twin = algos::run_parallel_mm(*mm_twin_machine, mm_options);
  });

  {
    auto span = run.tracer.span("numeric checks", "check");
    run.checks.expect_at_most("GE residual", ge.residual, 1e-9);
    // Freivalds: A (B x) must equal C x for a random x.
    Rng rng(seeds.next());
    std::vector<double> x(static_cast<std::size_t>(kRealDataN));
    for (double& v : x) v = rng.uniform(-1.0, 1.0);
    const std::vector<double> abx =
        numeric::mat_vec(mm.a, numeric::mat_vec(mm.b, x));
    const std::vector<double> cx = numeric::mat_vec(mm.c, x);
    double scale = 1.0;
    for (const double v : cx) scale = std::max(scale, std::abs(v));
    run.checks.expect_at_most("MM Freivalds check",
                              numeric::max_abs_diff(abx, cx) / scale, 1e-9);
    run.checks.expect_same_bits("GE with-data elapsed equals timing-only",
                                ge.run.elapsed, ge_twin.run.elapsed);
    run.checks.expect_same_bits("MM with-data elapsed equals timing-only",
                                mm.run.elapsed, mm_twin.run.elapsed);
  }
  if (!run.tracer.enabled()) return;

  const double data_s = (ge_s + mm_s) - (ge_twin_s + mm_twin_s);
  run.layer["kernels.data_s"] = data_s;
  run.layer["kernels.data_share"] = data_s / (ge_s + mm_s);
  run.layer["kernels.gflops"] = (ge.work_flops + mm.work_flops) / data_s / 1e9;
}

// ---------------------------------------------------------------------------

void print_result(const Run& run) {
  std::ostringstream os;
  os << std::setprecision(17);
  os << "{\"workload\":" << json_string(run.options.workload)
     << ",\"seed\":" << run.options.seed << ",\"threads\":" << run.threads
     << ",\"setup_s\":" << run.setup_s << ",\"wall_s\":" << run.wall_s
     << ",\"peak_rss_mb\":" << run.rss_mb
     << ",\"attempted\":" << run.checks.attempted()
     << ",\"failed\":" << run.checks.failed() << ",\"failures\":[";
  for (std::size_t i = 0; i < run.checks.failures().size(); ++i) {
    os << (i == 0 ? "" : ",") << json_string(run.checks.failures()[i]);
  }
  os << "],\"fingerprint\":{\"cpus\":" << affinity_cpus()
     << ",\"cpu_model\":" << json_string(cpu_model())
     << ",\"compiler\":" << json_string(compiler())
     << ",\"build_type\":" << json_string(HETSCALE_BENCH_BUILD_TYPE)
     << ",\"kernel_isa\":"
     << json_string(kernels::isa_name(kernels::active_isa()))
     << "},\"layer\":{";
  bool first = true;
  for (const auto& [name, value] : run.layer) {
    os << (first ? "" : ",") << json_string(name) << ":" << value;
    first = false;
  }
  os << "},\"self_s\":{";
  first = true;
  for (const auto& [layer, seconds] : run.tracer.self_by_layer()) {
    os << (first ? "" : ",") << json_string(layer) << ":" << seconds;
    first = false;
  }
  os << "}}\n";
  std::cout << os.str() << std::flush;
}

int usage() {
  std::cerr << "usage: hetscale_benchmark "
               "paper_tables|large_p|large_p_analyze|real_data "
               "[--seed N] [--trace FILE] [--self-test]\n";
  return 2;
}

}  // namespace
}  // namespace hetscale::bench

int main(int argc, char** argv) {
  using namespace hetscale::bench;
  // Base pages only. Whether the kernel backs a heap with transparent huge
  // pages depends on the host's memory fragmentation at that moment, which
  // made peak_rss_mb jump in 2 MiB steps between identical runs. Wall time
  // is the same either way.
  prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0);
  const auto main_start = Clock::now();
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      const std::string text = argv[++i];
      std::size_t used = 0;
      try {
        options.seed = std::stoull(text, &used);
      } catch (const std::exception&) {
        return usage();
      }
      if (used != text.size() || text[0] == '-') return usage();
    } else if (arg == "--trace" && i + 1 < argc) {
      options.trace_path = argv[++i];
    } else if (arg == "--self-test") {
      options.self_test = true;
    } else if (options.workload.empty() && arg[0] != '-') {
      options.workload = arg;
    } else {
      return usage();
    }
  }
  void (*workload)(Run&) = nullptr;
  if (options.workload == "paper_tables") workload = paper_tables;
  if (options.workload == "large_p") workload = large_p;
  if (options.workload == "large_p_analyze") workload = large_p_analyze;
  if (options.workload == "real_data") workload = real_data;
  if (workload == nullptr) return usage();

  Run run(options, main_start);
  try {
    auto root = run.tracer.span(options.workload, "benchmark");
    workload(run);
  } catch (const std::exception& error) {
    run.checks.fail_all(error.what());
  }
  if (run.tracer.enabled()) {
    std::ofstream out(options.trace_path);
    run.tracer.write_chrome_trace(out);
    if (!out.good()) {
      run.checks.fail_all("cannot write trace to " + options.trace_path);
    }
  }
  print_result(run);
  return run.checks.failed() == 0 ? 0 : 1;
}
