// Fault-injection experiment catalogue — degraded-mode scalability
// artifacts over the paper's combinations.
//
// Three registered scenarios (run/scenario.hpp registry, `hetscale_cli run`
// and the bench launchers both resolve through it):
//   * fault_ge_degraded_scalability — the GE ladder solved for the target
//     E_s healthy and under a seeded degradation plan (stragglers + link
//     faults); ψ between ladder steps for both, plus the effective marked
//     speed at each degraded operating point.
//   * fault_mm_crash_restart — MM under a seeded crash schedule, sweeping
//     the checkpoint interval; the fault-overhead decomposition shows the
//     checkpoint-cost / rework-cost trade.
//   * fault_ge_loss_retry — GE under transient message loss, sweeping the
//     drop probability; retries and retry wait against the efficiency lost.
//
// Every plan derives from RunContext::seed (--seed), so an artifact is
// reproduced bit-exactly by rerunning with the same seed, at any --jobs
// setting.
#pragma once

#include <cstdint>

#include "hetscale/fault/plan.hpp"

namespace hetscale::scenarios {

/// The degradation plan spec shared by the GE fault scenarios and the CLI
/// `inject` command, whose --slowdown takes its duty cycle and period:
/// every rank alternates healthy and 0.6x phases, the network periodically
/// loses half its bandwidth.
fault::PlanSpec degraded_plan_spec();

/// Register the fault scenarios with the global registry. Idempotent.
void register_fault_scenarios();

}  // namespace hetscale::scenarios
