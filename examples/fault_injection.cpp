// Fault injection — what does a degradation plan cost, and where does the
// time go? Builds GE on a two-node Sunwulf ensemble, generates a seeded
// fault plan (stragglers + link degradation + message loss + crashes with
// checkpointing), and decomposes the added run time by cause.
//
// Everything is deterministic: re-run with the same seed and every number
// reproduces to the bit, at any --jobs setting (see
// docs/architecture.md, "The fault layer").
#include <iostream>

#include "hetscale/fault/analysis.hpp"
#include "hetscale/fault/plan.hpp"
#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/scal/fault_study.hpp"
#include "hetscale/support/table.hpp"

int main() {
  using namespace hetscale;

  scal::ClusterCombination::Config config;
  config.cluster = machine::sunwulf::ge_ensemble(2);
  scal::ClusterCombination ge("GE-2", std::move(config), scal::ge_algo());
  constexpr std::int64_t kN = 256;

  // A plan that exercises every fault class. Windows are sized to the
  // run: GE-2 at N=256 finishes within a few virtual seconds.
  fault::PlanSpec spec;
  spec.slowdown_probability = 1.0;   // every rank is a straggler ...
  spec.slowdown_factor = 0.6;        // ... computing at 60% when degraded
  spec.slowdown_duty = 0.4;
  spec.slowdown_period_s = 0.5;
  spec.link_duty = 0.25;             // the network loses half its bandwidth
  spec.link_period_s = 0.5;          // for a quarter of every half second
  spec.link_bandwidth_factor = 0.5;
  spec.loss.drop_probability = 0.05; // 5% of transmissions are dropped
  spec.crash_rate_per_s = 0.05;      // rare crashes ...
  spec.restart_delay_s = 0.1;
  spec.checkpoint.interval_s = 0.2;  // ... bounded by cheap checkpoints
  spec.checkpoint.bytes = 8.0 * kN * kN / ge.processor_count();
  spec.horizon_s = 60.0;
  const fault::FaultPlan plan =
      fault::FaultPlan::generate(/*seed=*/7, spec, ge.processor_count());
  std::cout << "plan: " << plan.summary() << "\n\n";

  const scal::FaultDecomposition d = scal::decompose_faults(ge, kN, plan);

  Table table("GE-2 at N=256, healthy vs under the plan");
  table.set_header({"view", "elapsed s", "E_s"});
  table.add_row({"healthy", Table::fixed(d.healthy.seconds, 4),
                 Table::fixed(d.healthy.speed_efficiency, 4)});
  table.add_row({"faulty", Table::fixed(d.faulty.measurement.seconds, 4),
                 Table::fixed(d.faulty.measurement.speed_efficiency, 4)});
  std::cout << table << "\n";

  const fault::RankFaultStats& totals = d.faulty.fault_totals;
  Table ledger("Injected fault time, summed over ranks");
  ledger.set_header({"cause", "seconds", "events"});
  ledger.add_row({"slowdown stretch", Table::fixed(totals.slowdown_s, 4), ""});
  ledger.add_row({"checkpoints", Table::fixed(totals.checkpoint_s, 4),
                  std::to_string(totals.checkpoints)});
  ledger.add_row({"crash rework", Table::fixed(totals.rework_s, 4),
                  std::to_string(totals.crashes)});
  ledger.add_row({"retry waits", Table::fixed(totals.retry_s, 4),
                  std::to_string(totals.retries)});
  std::cout << ledger << "\n";

  std::cout << "fault overhead   " << Table::fixed(d.fault_overhead_s, 4)
            << " s  (attributed " << Table::fixed(d.attributed_s, 4)
            << ", residual " << Table::fixed(d.residual_s, 4) << ")\n"
            << "effective C      "
            << Table::fixed(d.faulty.effective_marked_speed / 1e6, 2)
            << " Mflop/s vs healthy " << Table::fixed(ge.marked_speed() / 1e6, 2)
            << "\n"
            << "degraded E_s     " << Table::fixed(d.faulty.degraded_es, 4)
            << "  (against what the degraded machine offered)\n"
            << "retention        " << Table::fixed(d.efficiency_retention, 4)
            << "  (fraction of healthy E_s kept under the plan)\n";
  return 0;
}
