#include "hetscale/scenarios/fault.hpp"

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "hetscale/run/scenario.hpp"
#include "hetscale/scal/fault_study.hpp"
#include "hetscale/scal/series.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/table.hpp"

namespace hetscale::scenarios {

namespace {

using run::RunContext;
using run::RunResult;
using run::Value;

/// The degraded GE ladder: healthy combinations, their seeded plans, and
/// the faulted wrappers, with stable storage for all three.
struct FaultedLadder {
  std::vector<std::unique_ptr<scal::ClusterCombination>> healthy;
  std::vector<std::unique_ptr<fault::FaultPlan>> plans;
  std::vector<std::unique_ptr<scal::FaultedCombination>> faulted;
  std::vector<scal::Combination*> healthy_ptrs;
  std::vector<scal::Combination*> faulted_ptrs;
};

FaultedLadder ge_faulted_ladder(std::uint64_t seed,
                                const std::vector<int>& node_counts) {
  FaultedLadder ladder;
  for (int nodes : node_counts) {
    ladder.healthy.push_back(make_ge(nodes));
    auto& combo = *ladder.healthy.back();
    ladder.plans.push_back(std::make_unique<fault::FaultPlan>(
        fault::FaultPlan::generate(seed, degraded_plan_spec(),
                                   combo.processor_count())));
    ladder.faulted.push_back(std::make_unique<scal::FaultedCombination>(
        combo, *ladder.plans.back()));
    ladder.healthy_ptrs.push_back(&combo);
    ladder.faulted_ptrs.push_back(ladder.faulted.back().get());
  }
  return ladder;
}

// ---- fault_ge_degraded_scalability --------------------------------------

RunResult ge_degraded_scalability(const RunContext& context) {
  RunResult result;
  result.scenario = "fault_ge_degraded_scalability";
  result.title = "GE scalability under a seeded degradation plan";
  std::ostringstream os;

  const std::vector<int> node_counts{2, 4, 8};
  auto ladder = ge_faulted_ladder(context.seed, node_counts);
  os << artifact_header(
      result.title,
      "psi at E_s = 0.3 on the {2,4,8}-node GE ladder, healthy vs degraded "
      "(stragglers at 0.6x + periodic link faults; plan '" +
          ladder.plans.front()->summary() + "').");

  const auto healthy = scal::scalability_series(ladder.healthy_ptrs,
                                                kGeTargetEs, context.runner);
  const auto faulty = scal::scalability_series(ladder.faulted_ptrs,
                                               kGeTargetEs, context.runner);

  result.columns = {"nodes",   "marked_speed_mflops", "n_healthy",
                    "n_faulty", "effective_speed_mflops", "degraded_es"};
  Table points("Operating points at E_s = 0.3");
  points.set_header({"System", "C (Mflops)", "N healthy", "N degraded",
                     "C_eff (Mflops)", "degraded E_s"});
  for (std::size_t i = 0; i < node_counts.size(); ++i) {
    const auto& h = healthy.points[i];
    const auto& f = faulty.points[i];
    std::string n_faulty = "-";
    std::string c_eff = "-";
    std::string degraded_es = "-";
    Value n_faulty_v, c_eff_v, degraded_es_v;  // null unless found
    if (f.found) {
      auto& faulted = *ladder.faulted[i];
      const scal::DegradedSpeed view = faulted.degraded(faulted.measure(f.n));
      n_faulty = std::to_string(f.n);
      c_eff = mflops_str(view.effective_marked_speed);
      degraded_es = Table::fixed(view.degraded_es, 4);
      n_faulty_v = Value(f.n);
      c_eff_v = Value::fixed(view.effective_marked_speed / 1e6, 1);
      degraded_es_v = Value::fixed(view.degraded_es, 4);
    }
    points.add_row({h.system, mflops_str(h.marked_speed),
                    h.found ? std::to_string(h.n) : "-", n_faulty, c_eff,
                    degraded_es});
    result.add_row({Value(node_counts[i]),
                    Value::fixed(h.marked_speed / 1e6, 1),
                    h.found ? Value(h.n) : Value(), n_faulty_v, c_eff_v,
                    degraded_es_v});
  }
  os << points << '\n';

  Table steps("psi between ladder steps");
  steps.set_header({"Step", "psi healthy", "psi degraded"});
  for (std::size_t i = 0; i < healthy.steps.size(); ++i) {
    const auto& h = healthy.steps[i];
    const double faulty_psi =
        i < faulty.steps.size() ? faulty.steps[i].psi : 0.0;
    steps.add_row({"psi(" + h.from + " -> " + h.to + ")",
                   Table::fixed(h.psi, 4), Table::fixed(faulty_psi, 4)});
  }
  os << steps;
  os << "(a scalable combination degrades gracefully: the degraded psi "
        "tracks the healthy one, paid for by a larger required N)\n";

  result.add_scalar("seed", Value(static_cast<std::int64_t>(context.seed)));
  result.add_scalar("cumulative_psi_healthy",
                    Value::fixed(healthy.cumulative_psi(), 4));
  result.add_scalar("cumulative_psi_degraded",
                    Value::fixed(faulty.cumulative_psi(), 4));
  result.text = os.str();
  return result;
}

// ---- fault_mm_crash_restart ---------------------------------------------

RunResult mm_crash_restart(const RunContext& context) {
  RunResult result;
  result.scenario = "fault_mm_crash_restart";
  result.title = "MM under crash/restart: the checkpoint interval trade";
  std::ostringstream os;

  constexpr int kNodes = 4;
  constexpr std::int64_t kN = 384;
  auto combo = make_mm(kNodes);
  const int ranks = combo->processor_count();
  const auto& healthy = combo->measure(kN);
  const double t_healthy = healthy.seconds;

  os << artifact_header(
      result.title,
      "MM (N=384, 4 nodes) under a seeded Poisson crash schedule; sweeping "
      "the checkpoint interval shows checkpoint cost vs crash rework "
      "(Theorem 1's T_o gains a fault term).");

  // The same seeded crash schedule for every row — only the checkpoint
  // cadence varies, so the sweep is a controlled experiment. Intervals and
  // crash rate scale with the healthy runtime, keeping the scenario
  // meaningful at any problem size.
  fault::PlanSpec base;
  base.crash_rate_per_s = 2.0 / t_healthy;
  base.restart_delay_s = 0.05 * t_healthy;
  base.horizon_s = 5.0 * t_healthy;
  base.checkpoint.bytes =
      8.0 * static_cast<double>(kN) * static_cast<double>(kN) /
      static_cast<double>(ranks);
  base.checkpoint.flops = static_cast<double>(kN) * static_cast<double>(kN);

  const std::vector<std::pair<std::string, double>> intervals{
      {"none", 0.0},
      {"T/2", t_healthy / 2.0},
      {"T/4", t_healthy / 4.0},
      {"T/8", t_healthy / 8.0},
  };

  result.columns = {"interval",      "checkpoints",  "crashes",
                    "checkpoint_s",  "rework_s",     "elapsed_s",
                    "fault_overhead_s", "efficiency_retention"};
  for (const auto& [label, interval] : intervals) {
    fault::PlanSpec spec = base;
    spec.checkpoint.interval_s = interval;
    const auto plan =
        fault::FaultPlan::generate(context.seed, spec, ranks);
    const auto d = scal::decompose_faults(*combo, kN, plan);
    const auto& totals = d.faulty.fault_totals;
    result.add_row({Value(label),
                    Value(static_cast<std::int64_t>(totals.checkpoints)),
                    Value(static_cast<std::int64_t>(totals.crashes)),
                    Value::fixed(totals.checkpoint_s, 4),
                    Value::fixed(totals.rework_s, 4),
                    Value::fixed(d.faulty.measurement.seconds, 4),
                    Value::fixed(d.fault_overhead_s, 4),
                    Value::fixed(d.efficiency_retention, 4)});
  }
  os << result.table({"Interval", "Ckpts", "Crashes", "Ckpt s", "Rework s",
                      "T s", "Overhead s", "E_s retention"},
                     "Checkpoint interval sweep (T_healthy = " +
                         Table::fixed(t_healthy, 4) + " s)");
  os << "(short intervals pay more checkpoint cost but bound the rework a "
        "crash can roll back; 'none' rolls back to the start of the run)\n";

  result.add_scalar("seed", Value(static_cast<std::int64_t>(context.seed)));
  result.add_scalar("healthy_elapsed_s", Value::fixed(t_healthy, 4));
  result.text = os.str();
  return result;
}

// ---- fault_ge_loss_retry ------------------------------------------------

RunResult ge_loss_retry(const RunContext& context) {
  RunResult result;
  result.scenario = "fault_ge_loss_retry";
  result.title = "GE under transient message loss";
  std::ostringstream os;

  constexpr std::int64_t kN = 512;
  auto combo = make_ge(2);
  os << artifact_header(
      result.title,
      "GE (N=512, 2 nodes) with per-transmission drop probability; lost "
      "frames occupy the wire, senders retry after timeout with "
      "exponential backoff.");

  const std::vector<double> drop_probabilities{0.0, 0.02, 0.05, 0.1, 0.2};

  result.columns = {"drop_probability", "retries",  "retry_s",
                    "elapsed_s",        "speed_efficiency",
                    "efficiency_retention"};
  for (const double p : drop_probabilities) {
    fault::FaultPlan plan(context.seed);
    fault::LossModel loss;
    loss.drop_probability = p;
    plan.set_loss(loss);
    const auto d = scal::decompose_faults(*combo, kN, plan);
    const auto& totals = d.faulty.fault_totals;
    result.add_row({Value::fixed(p, 2),
                    Value(static_cast<std::int64_t>(totals.retries)),
                    Value::fixed(totals.retry_s, 4),
                    Value::fixed(d.faulty.measurement.seconds, 4),
                    Value::fixed(d.faulty.measurement.speed_efficiency, 4),
                    Value::fixed(d.efficiency_retention, 4)});
  }
  os << result.table(
      {"p(drop)", "Retries", "Retry s", "T s", "E_s", "E_s retention"},
      "Drop-probability ladder");
  os << "(the p=0 row is the healthy baseline; retry waits compound on "
        "GE's per-step broadcasts, so efficiency falls faster than p)\n";

  result.add_scalar("seed", Value(static_cast<std::int64_t>(context.seed)));
  result.text = os.str();
  return result;
}

}  // namespace

fault::PlanSpec degraded_plan_spec() {
  fault::PlanSpec spec;
  spec.slowdown_probability = 1.0;
  spec.slowdown_factor = 0.6;
  spec.slowdown_duty = 0.4;
  spec.slowdown_period_s = 0.5;
  spec.link_duty = 0.25;
  spec.link_period_s = 0.5;
  spec.link_bandwidth_factor = 0.5;
  spec.link_extra_latency_s = 1e-4;
  // The GE/MM artifact runs finish well inside 200 virtual seconds; a
  // tighter horizon keeps the generated window list (and the per-compute
  // interval scans over it) small.
  spec.horizon_s = 200.0;
  return spec;
}

void register_fault_scenarios() {
  static const bool registered = [] {
    run::register_scenario(
        {"fault_ge_degraded_scalability",
         "GE ladder psi at E_s = 0.3, healthy vs seeded degradation plan",
         ge_degraded_scalability});
    run::register_scenario(
        {"fault_mm_crash_restart",
         "MM under seeded crashes: checkpoint-interval sweep with fault "
         "overhead decomposition",
         mm_crash_restart});
    run::register_scenario(
        {"fault_ge_loss_retry",
         "GE under transient message loss: drop-probability ladder with "
         "retry accounting",
         ge_loss_retry});
    return true;
  }();
  (void)registered;
}

}  // namespace hetscale::scenarios
