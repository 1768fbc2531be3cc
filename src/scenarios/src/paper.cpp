#include "hetscale/scenarios/paper.hpp"

#include <sstream>
#include <utility>

#include "hetscale/marked/suite.hpp"
#include "hetscale/numeric/polynomial.hpp"
#include "hetscale/numeric/stats.hpp"
#include "hetscale/predict/models.hpp"
#include "hetscale/predict/probe.hpp"
#include "hetscale/run/scenario.hpp"
#include "hetscale/scal/iso_solver.hpp"
#include "hetscale/scal/metrics.hpp"
#include "hetscale/scal/series.hpp"
#include "hetscale/support/csv.hpp"
#include "hetscale/support/table.hpp"

namespace hetscale::scenarios {

namespace {

using run::RunContext;
using run::RunResult;
using run::Value;

/// An owning GE or MM ladder over kPaperNodeCounts.
struct Ladder {
  std::vector<std::unique_ptr<scal::ClusterCombination>> owned;
  std::vector<scal::Combination*> ptrs;
};

Ladder ge_ladder() {
  Ladder ladder;
  for (int nodes : kPaperNodeCounts) {
    ladder.owned.push_back(make_ge(nodes));
    ladder.ptrs.push_back(ladder.owned.back().get());
  }
  return ladder;
}

Ladder mm_ladder() {
  Ladder ladder;
  for (int nodes : kPaperNodeCounts) {
    ladder.owned.push_back(make_mm(nodes));
    ladder.ptrs.push_back(ladder.owned.back().get());
  }
  return ladder;
}

// ---- Table 1 — marked speed of the Sunwulf node types -------------------

RunResult table1(const RunContext&) {
  RunResult result;
  result.scenario = "table1_marked_speed";
  result.title = "Table 1  Marked speed of Sunwulf nodes (Mflops)";
  std::ostringstream os;
  os << artifact_header(
      result.title,
      "Suite: EP, LU, FT, BT, MG kernels on one CPU per node type; marked "
      "speed = mean sustained rate (Definitions 1-2).");

  const machine::NodeSpec specs[] = {machine::sunwulf::server_spec(),
                                     machine::sunwulf::sunblade_spec(),
                                     machine::sunwulf::v210_spec()};
  const char* labels[] = {"Server Node (1 CPU)", "SunBlade",
                          "SunFire V210 (1 CPU)"};

  result.columns = {"node"};
  for (auto name : marked::kKernelNames) {
    result.columns.push_back("mflops_" + std::string(name));
  }
  result.columns.push_back("marked_speed_mflops");

  Table per_kernel("Per-kernel sustained rate (Mflops)");
  {
    std::vector<std::string> header{"Node"};
    for (auto name : marked::kKernelNames) header.emplace_back(name);
    header.emplace_back("Marked Speed");
    per_kernel.set_header(std::move(header));
  }
  for (int i = 0; i < 3; ++i) {
    const auto results = marked::run_suite(specs[i]);
    std::vector<std::string> row{labels[i]};
    std::vector<Value> cells{Value(labels[i])};
    for (const auto& r : results) {
      row.push_back(mflops_str(r.rate_flops));
      cells.push_back(Value::fixed(r.rate_flops / 1e6, 1));
    }
    const double node_speed = marked::node_marked_speed(specs[i]);
    row.push_back(mflops_str(node_speed));
    cells.push_back(Value::fixed(node_speed / 1e6, 1));
    per_kernel.add_row(std::move(row));
    result.add_row(std::move(cells));
  }
  os << per_kernel << '\n';

  // §4.3 worked example: C = server(1cpu) + SunBlade + 2 x V210(1cpu).
  machine::Cluster example;
  example.add_node("sunwulf", machine::sunwulf::server_spec(), 1);
  example.add_node("hpc-1", machine::sunwulf::sunblade_spec());
  example.add_node("hpc-65", machine::sunwulf::v210_spec(), 1);
  example.add_node("hpc-66", machine::sunwulf::v210_spec(), 1);
  const double example_speed = marked::system_marked_speed(example);
  os << "Worked example (paper §4.3): C[" << example.summary()
     << "] = " << mflops_str(example_speed) << " Mflops\n";
  result.add_scalar("worked_example_marked_speed_mflops",
                    Value::fixed(example_speed / 1e6, 1));

  result.text = os.str();
  return result;
}

// ---- Table 2 — GE on two nodes ------------------------------------------

RunResult table2(const RunContext& context) {
  RunResult result;
  result.scenario = "table2_ge_two_nodes";
  result.title = "Table 2  Experimental results on two nodes";
  auto combo = make_ge(2);
  std::ostringstream os;
  os << artifact_header(
      result.title,
      "GE on " + combo->cluster().summary() +
          "; C = " + mflops_str(combo->marked_speed()) + " Mflops");

  const std::vector<std::int64_t> ranks{50,  100, 150, 200, 250,
                                        310, 400, 500, 640, 800};
  const auto measured = combo->measure_many(ranks, context.runner);

  result.columns = {"n", "work_mflop", "seconds", "speed_mflops",
                    "speed_efficiency"};
  result.add_scalar("marked_speed_mflops",
                    Value::fixed(combo->marked_speed() / 1e6, 1));

  Table table;
  table.set_header({"Rank N", "Workload W (Mflop)", "Execution Time T (s)",
                    "Achieved Speed (Mflops)", "Speed-efficiency"});
  for (const auto& m : measured) {
    table.add_row({std::to_string(m.n), Table::fixed(m.work_flops / 1e6, 2),
                   Table::fixed(m.seconds, 3), mflops_str(m.speed_flops),
                   Table::fixed(m.speed_efficiency, 3)});
    result.add_row({Value(m.n), Value::fixed(m.work_flops / 1e6, 2),
                    Value::fixed(m.seconds, 3),
                    Value::fixed(m.speed_flops / 1e6, 1),
                    Value::fixed(m.speed_efficiency, 3)});
  }
  os << table;
  result.text = os.str();
  return result;
}

// ---- Tables 3/4 — GE operating points and scalability -------------------

RunResult table3(const RunContext& context) {
  RunResult result;
  result.scenario = "table3_ge_required_rank";
  result.title = "Table 3  Required rank to obtain 0.3 speed-efficiency";
  std::ostringstream os;
  os << artifact_header(result.title,
                        "GE on the Sunwulf ladder (server 2 CPUs + "
                        "SunBlades).");

  auto ladder = ge_ladder();
  const auto report = scal::scalability_series(ladder.ptrs, kGeTargetEs, {},
                                               &context.runner);

  result.columns = {"system", "n", "work_mflop", "marked_speed_mflops",
                    "achieved_es"};
  result.add_scalar("target_es", Value::fixed(kGeTargetEs, 1));

  Table table;
  table.set_header({"System Configuration", "Rank N", "Workload (Mflop)",
                    "Marked Speed (Mflops)", "Achieved E_s"});
  for (const auto& point : report.points) {
    table.add_row({point.system,
                   point.found ? std::to_string(point.n) : "unreachable",
                   point.found ? Table::fixed(point.work / 1e6, 2) : "-",
                   mflops_str(point.marked_speed),
                   point.found ? Table::fixed(point.achieved_es, 3) : "-"});
    result.add_row({Value(point.system),
                    point.found ? Value(point.n) : Value(),
                    point.found ? Value::fixed(point.work / 1e6, 2) : Value(),
                    Value::fixed(point.marked_speed / 1e6, 1),
                    point.found ? Value::fixed(point.achieved_es, 3)
                                : Value()});
  }
  os << table;
  os << "(paper: N = 310 / 480 / ... growing with system size)\n";
  result.text = os.str();
  return result;
}

RunResult table4(const RunContext& context) {
  RunResult result;
  result.scenario = "table4_ge_scalability";
  result.title = "Table 4  Measured scalability of GE on Sunwulf";
  std::ostringstream os;
  os << artifact_header(result.title,
                        "psi(C,C') = C'W / (C W') at E_s = 0.3.");

  auto ladder = ge_ladder();
  const auto report = scal::scalability_series(ladder.ptrs, kGeTargetEs, {},
                                               &context.runner);

  result.columns = {"from", "to", "psi"};
  Table table;
  table.set_header({"Step", "psi"});
  for (const auto& step : report.steps) {
    table.add_row({"psi(" + step.from + " -> " + step.to + ")",
                   Table::fixed(step.psi, 4)});
    result.add_row(
        {Value(step.from), Value(step.to), Value::fixed(step.psi, 4)});
  }
  table.add_row({"cumulative psi(C2 -> C32)",
                 Table::fixed(report.cumulative_psi(), 4)});
  result.add_scalar("cumulative_psi",
                    Value::fixed(report.cumulative_psi(), 4));
  os << table;
  os << "(expected shape: 0 < psi < 1, slowly decaying — GE has a "
        "sequential portion and per-step communication)\n";
  result.text = os.str();
  return result;
}

// ---- Table 5 — MM scalability, compared against GE ----------------------

RunResult table5(const RunContext& context) {
  RunResult result;
  result.scenario = "table5_mm_scalability";
  result.title = "Table 5  Scalability of MM on Sunwulf";
  std::ostringstream os;
  os << artifact_header(result.title,
                        "psi at E_s = 0.2 on the mixed ensembles.");

  auto mm_systems = mm_ladder();
  const auto mm = scal::scalability_series(mm_systems.ptrs, kMmTargetEs, {},
                                           &context.runner);

  result.columns = {"from", "to", "required_n", "psi"};
  Table table;
  table.set_header({"Step", "Required N", "psi"});
  for (std::size_t i = 0; i < mm.steps.size(); ++i) {
    table.add_row({"psi(" + mm.steps[i].from + " -> " + mm.steps[i].to + ")",
                   std::to_string(mm.points[i + 1].n),
                   Table::fixed(mm.steps[i].psi, 4)});
    result.add_row({Value(mm.steps[i].from), Value(mm.steps[i].to),
                    Value(mm.points[i + 1].n),
                    Value::fixed(mm.steps[i].psi, 4)});
  }
  table.add_row({"cumulative psi(C2' -> C32')", "",
                 Table::fixed(mm.cumulative_psi(), 4)});
  os << table << '\n';

  // §4.4.3 comparison against the GE ladder.
  auto ge_systems = ge_ladder();
  const auto ge = scal::scalability_series(ge_systems.ptrs, kGeTargetEs, {},
                                           &context.runner);
  os << "GE cumulative psi = " << Table::fixed(ge.cumulative_psi(), 4)
     << " vs MM cumulative psi = " << Table::fixed(mm.cumulative_psi(), 4)
     << (mm.cumulative_psi() > ge.cumulative_psi()
             ? "  -> MM-Sunwulf is the more scalable combination "
               "(matches paper §4.4.3)"
             : "  -> UNEXPECTED: GE came out ahead")
     << '\n';
  result.add_scalar("mm_cumulative_psi",
                    Value::fixed(mm.cumulative_psi(), 4));
  result.add_scalar("ge_cumulative_psi",
                    Value::fixed(ge.cumulative_psi(), 4));
  result.add_scalar("mm_more_scalable",
                    Value(mm.cumulative_psi() > ge.cumulative_psi()));
  result.text = os.str();
  return result;
}

// ---- Tables 6/7 — the predicted counterparts ----------------------------

RunResult table6(const RunContext&) {
  RunResult result;
  result.scenario = "table6_ge_predicted_rank";
  result.title = "Table 6  Predicted required rank (GE, E_s = 0.3)";
  std::ostringstream os;
  os << artifact_header(result.title,
                        "Micro-probed comm parameters + analytic overhead "
                        "model (paper §4.5).");

  predict::ProbeConfig probe_config{.node = machine::sunwulf::sunblade_spec()};
  const auto comm = predict::probe_comm_model(probe_config);
  os << "Measured machine parameters:\n"
     << "  T_send(m)      = " << Table::fixed(comm.send_alpha_s * 1e3, 4)
     << " ms + " << Table::fixed(comm.send_beta_s_per_byte * 1e6, 4)
     << " us/byte\n"
     << "  T_bcast(p,m)   = " << Table::fixed(comm.bcast_const_s * 1e3, 4)
     << " ms + (p-1) * (" << Table::fixed(comm.bcast_alpha_s * 1e3, 4)
     << " ms + " << Table::fixed(comm.bcast_beta_s_per_byte * 1e6, 4)
     << " us/byte)\n"
     << "  T_barrier(p)   = " << Table::fixed(comm.barrier_const_s * 1e3, 4)
     << " ms + (p-1) * " << Table::fixed(comm.barrier_unit_s * 1e3, 4)
     << " ms\n\n";
  result.add_scalar("send_alpha_ms", Value::fixed(comm.send_alpha_s * 1e3, 4));
  result.add_scalar("send_beta_us_per_byte",
                    Value::fixed(comm.send_beta_s_per_byte * 1e6, 4));
  result.add_scalar("bcast_const_ms",
                    Value::fixed(comm.bcast_const_s * 1e3, 4));
  result.add_scalar("bcast_alpha_ms",
                    Value::fixed(comm.bcast_alpha_s * 1e3, 4));
  result.add_scalar("bcast_beta_us_per_byte",
                    Value::fixed(comm.bcast_beta_s_per_byte * 1e6, 4));
  result.add_scalar("barrier_const_ms",
                    Value::fixed(comm.barrier_const_s * 1e3, 4));
  result.add_scalar("barrier_unit_ms",
                    Value::fixed(comm.barrier_unit_s * 1e3, 4));

  predict::GeOverheadModel model;
  result.columns = {"nodes", "predicted_n"};
  Table table;
  table.set_header({"Nodes", "N (prediction)"});
  for (int nodes : kPaperNodeCounts) {
    const auto system = predict::system_model_for(
        machine::sunwulf::ge_ensemble(nodes), comm);
    const auto n =
        predict::predicted_required_size(model, system, kGeTargetEs);
    table.add_row({std::to_string(nodes), std::to_string(n)});
    result.add_row({Value(nodes), Value(n)});
  }
  os << table;
  os << "(compare against the measured Table 3 ranks)\n";
  result.text = os.str();
  return result;
}

RunResult table7(const RunContext& context) {
  RunResult result;
  result.scenario = "table7_ge_predicted_scalability";
  result.title = "Table 7  Predicted scalability of GE on Sunwulf";
  std::ostringstream os;
  os << artifact_header(result.title,
                        "Theorem 1 with probed parameters vs measured psi "
                        "at E_s = 0.3.");

  const auto comm = predict::probe_comm_model(
      predict::ProbeConfig{.node = machine::sunwulf::sunblade_spec()});
  predict::GeOverheadModel model;

  // Measured ladder (as in Table 4).
  auto ladder = ge_ladder();
  const auto measured = scal::scalability_series(ladder.ptrs, kGeTargetEs,
                                                 {}, &context.runner);

  result.columns = {"from_nodes", "to_nodes", "psi_predicted",
                    "psi_measured", "rel_error"};
  Table table;
  table.set_header(
      {"Step", "psi (predicted)", "psi (measured)", "rel. error"});
  for (std::size_t i = 0; i + 1 < kPaperNodeCounts.size(); ++i) {
    const auto from = predict::system_model_for(
        machine::sunwulf::ge_ensemble(kPaperNodeCounts[i]), comm);
    const auto to = predict::system_model_for(
        machine::sunwulf::ge_ensemble(kPaperNodeCounts[i + 1]), comm);
    const double predicted =
        predict::predicted_scalability(model, from, to, kGeTargetEs);
    const double got = measured.steps[i].psi;
    table.add_row({"psi(C" + std::to_string(kPaperNodeCounts[i]) + ", C" +
                       std::to_string(kPaperNodeCounts[i + 1]) + ")",
                   Table::fixed(predicted, 4), Table::fixed(got, 4),
                   Table::fixed(numeric::relative_error(predicted, got), 3)});
    result.add_row({Value(kPaperNodeCounts[i]),
                    Value(kPaperNodeCounts[i + 1]),
                    Value::fixed(predicted, 4), Value::fixed(got, 4),
                    Value::fixed(numeric::relative_error(predicted, got),
                                 3)});
  }
  os << table;
  os << "(paper finding: prediction close to measurement, validating "
        "the isospeed-efficiency metric)\n";
  result.text = os.str();
  return result;
}

// ---- Figures 1/2 — speed-efficiency curves ------------------------------

RunResult fig1(const RunContext& context) {
  RunResult result;
  result.scenario = "fig1_ge_speed_efficiency";
  result.title = "Fig. 1  Speed-efficiency on two nodes";
  auto combo = make_ge(2);
  std::ostringstream os;
  os << artifact_header(
      result.title,
      "GE on " + combo->cluster().summary() + "; polynomial trend line and "
      "trend-read verification at E_s = 0.3.");

  std::vector<std::int64_t> sizes;
  for (std::int64_t n = 50; n <= 1000; n += 50) sizes.push_back(n);
  const auto curve =
      scal::sample_efficiency_curve(*combo, sizes, context.runner);
  const auto trend = scal::fit_trend(curve, 3);

  result.columns = {"n", "speed_efficiency", "trend"};
  CsvWriter csv({"N", "speed_efficiency", "trend"});
  for (const auto& m : curve.samples) {
    const double trend_at = trend(static_cast<double>(m.n));
    csv.add_row({std::to_string(m.n), Table::fixed(m.speed_efficiency, 4),
                 Table::fixed(trend_at, 4)});
    result.add_row({Value(m.n), Value::fixed(m.speed_efficiency, 4),
                    Value::fixed(trend_at, 4)});
  }
  os << csv.str();
  const double r2 =
      numeric::r_squared(trend, curve.sizes(), curve.efficiencies());
  os << "trend R^2 = " << Table::fixed(r2, 4) << "\n\n";
  result.add_scalar("trend_r_squared", Value::fixed(r2, 4));

  scal::IsoSolveOptions options;
  options.method = scal::IsoSolveOptions::Method::kTrendLine;
  options.trend_n_lo = 50;
  options.trend_n_hi = 1000;
  options.runner = &context.runner;
  const auto solved =
      scal::required_problem_size(*combo, kGeTargetEs, options);
  os << "Trend-line read-off for E_s = " << kGeTargetEs << ": N ~ "
     << solved.n << "; measured E_s at that N = "
     << Table::fixed(solved.achieved_es, 3)
     << "  (paper: N ~ 310 measured 0.312)\n";
  result.add_scalar("trend_read_n", Value(solved.n));
  result.add_scalar("measured_es_at_read",
                    Value::fixed(solved.achieved_es, 3));
  result.text = os.str();
  return result;
}

RunResult fig2(const RunContext& context) {
  RunResult result;
  result.scenario = "fig2_mm_speed_efficiency";
  result.title = "Fig. 2  Speed-efficiency of MM on Sunwulf";
  std::ostringstream os;
  os << artifact_header(
      result.title,
      "MM on mixed ensembles (server 1 CPU + SunBlades + V210s, 1 CPU "
      "each); cubic trend per series.");

  std::vector<std::int64_t> sizes;
  for (std::int64_t n = 16; n <= 512; n += 16) sizes.push_back(n);

  std::vector<std::string> header{"N"};
  result.columns = {"n"};
  std::vector<scal::EfficiencyCurve> curves;
  std::vector<numeric::Polynomial> trends;
  for (int nodes : kPaperNodeCounts) {
    auto combo = make_mm(nodes);
    curves.push_back(
        scal::sample_efficiency_curve(*combo, sizes, context.runner));
    trends.push_back(scal::fit_trend(curves.back(), 3));
    header.push_back("es_" + std::to_string(nodes) + "nodes");
    header.push_back("trend_" + std::to_string(nodes) + "nodes");
    result.columns.push_back("es_" + std::to_string(nodes) + "nodes");
    result.columns.push_back("trend_" + std::to_string(nodes) + "nodes");
  }

  CsvWriter csv(std::move(header));
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    std::vector<std::string> row{std::to_string(sizes[s])};
    std::vector<Value> cells{Value(sizes[s])};
    for (std::size_t c = 0; c < curves.size(); ++c) {
      const double es = curves[c].samples[s].speed_efficiency;
      const double trend_at = trends[c](static_cast<double>(sizes[s]));
      row.push_back(Table::fixed(es, 4));
      row.push_back(Table::fixed(trend_at, 4));
      cells.push_back(Value::fixed(es, 4));
      cells.push_back(Value::fixed(trend_at, 4));
    }
    csv.add_row(std::move(row));
    result.add_row(std::move(cells));
  }
  os << csv.str();
  os << "(expected shape: each curve rises with N; larger systems "
        "need larger N for the same E_s)\n";
  result.text = os.str();
  return result;
}

}  // namespace

scal::ClusterCombination::Config ge_config(int nodes,
                                           scal::NetworkKind network) {
  scal::ClusterCombination::Config config;
  config.cluster = machine::sunwulf::ge_ensemble(nodes);
  config.network = network;
  config.with_data = false;
  return config;
}

scal::ClusterCombination::Config mm_config(int nodes,
                                           scal::NetworkKind network) {
  scal::ClusterCombination::Config config;
  config.cluster = machine::sunwulf::mm_ensemble(nodes);
  config.network = network;
  config.with_data = false;
  return config;
}

std::unique_ptr<scal::ClusterCombination> make_ge(int nodes,
                                                  scal::NetworkKind network) {
  return std::make_unique<scal::ClusterCombination>(
      std::to_string(nodes) + " Nodes, C" + std::to_string(nodes),
      ge_config(nodes, network), scal::ge_algo());
}

std::unique_ptr<scal::ClusterCombination> make_mm(int nodes,
                                                  scal::NetworkKind network) {
  return std::make_unique<scal::ClusterCombination>(
      std::to_string(nodes) + " Nodes, C" + std::to_string(nodes) + "'",
      mm_config(nodes, network), scal::mm_algo());
}

std::string artifact_header(const std::string& artifact,
                            const std::string& description) {
  return "==================================================\n" + artifact +
         "\n" + description +
         "\n==================================================\n";
}

std::string mflops_str(double flops) { return Table::fixed(flops / 1e6, 1); }

void register_paper_scenarios() {
  static const bool registered = [] {
    run::register_scenario(
        {"table1_marked_speed",
         "Table 1: marked speed of the Sunwulf node types", table1});
    run::register_scenario(
        {"table2_ge_two_nodes",
         "Table 2: GE measurements on the two-node ensemble", table2});
    run::register_scenario(
        {"table3_ge_required_rank",
         "Table 3: required rank for E_s = 0.3 on the GE ladder", table3});
    run::register_scenario(
        {"table4_ge_scalability",
         "Table 4: measured GE scalability psi between ladder steps",
         table4});
    run::register_scenario(
        {"table5_mm_scalability",
         "Table 5: measured MM scalability psi, compared against GE",
         table5});
    run::register_scenario(
        {"table6_ge_predicted_rank",
         "Table 6: predicted required rank from probed parameters", table6});
    run::register_scenario(
        {"table7_ge_predicted_scalability",
         "Table 7: predicted vs measured GE scalability", table7});
    run::register_scenario(
        {"fig1_ge_speed_efficiency",
         "Fig. 1: GE speed-efficiency curve on two nodes", fig1});
    run::register_scenario(
        {"fig2_mm_speed_efficiency",
         "Fig. 2: MM speed-efficiency curves on the ladder", fig2});
    return true;
  }();
  (void)registered;
}

}  // namespace hetscale::scenarios
