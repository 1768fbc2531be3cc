// The paper's experiment catalogue — shared wiring plus every table/figure
// harness as a registered scenario.
//
// This is where the machinery that used to be duplicated across the bench
// binaries lives: the Sunwulf ladder, the GE/MM ensemble builders, and the
// uniform harness header. Bench binaries and `hetscale_cli run` both
// resolve artifacts through the scenario registry (run/scenario.hpp), so
// each artifact has exactly one implementation.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/scal/combination.hpp"

namespace hetscale::scenarios {

/// The paper's system-size ladder.
inline const std::vector<int> kPaperNodeCounts{2, 4, 8, 16, 32};

/// The paper's target speed-efficiencies.
inline constexpr double kGeTargetEs = 0.3;
inline constexpr double kMmTargetEs = 0.2;

scal::ClusterCombination::Config ge_config(
    int nodes, scal::NetworkKind network = scal::NetworkKind::kSwitched);

scal::ClusterCombination::Config mm_config(
    int nodes, scal::NetworkKind network = scal::NetworkKind::kSwitched);

std::unique_ptr<scal::ClusterCombination> make_ge(
    int nodes, scal::NetworkKind network = scal::NetworkKind::kSwitched);

std::unique_ptr<scal::ClusterCombination> make_mm(
    int nodes, scal::NetworkKind network = scal::NetworkKind::kSwitched);

/// The uniform harness header every artifact prints.
std::string artifact_header(const std::string& artifact,
                            const std::string& description);

/// Mflop/s with one decimal, as the paper prints marked speeds.
std::string mflops_str(double flops);

/// Register the paper's table/figure scenarios (table1..table7, fig1,
/// fig2) with the global scenario registry. Idempotent.
void register_paper_scenarios();

}  // namespace hetscale::scenarios
