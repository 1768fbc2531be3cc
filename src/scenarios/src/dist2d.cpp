#include "hetscale/scenarios/dist2d.hpp"

#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "hetscale/algos/spmv.hpp"
#include "hetscale/run/scenario.hpp"
#include "hetscale/scal/series.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/table.hpp"

namespace hetscale::scenarios {

namespace {

using run::RunContext;
using run::RunResult;
using run::Value;

/// The ladders stop at 16 nodes: the 2D scenarios add a baseline sweep on
/// top of the paper's, and the 32-node rung adds cost without changing any
/// of the comparisons these artifacts pin.
const std::vector<int> kDist2dNodeCounts{2, 4, 8, 16};

/// SUMMA over the MM ensembles (speed-balanced 2D grid, switched network).
std::unique_ptr<scal::ClusterCombination> make_summa(int nodes) {
  return std::make_unique<scal::ClusterCombination>(
      std::to_string(nodes) + " Nodes, C" + std::to_string(nodes) + "''",
      mm_config(nodes), scal::summa_algo());
}

/// Panel-blocked pivoted GE over the GE ensembles.
std::unique_ptr<scal::ClusterCombination> make_ge_pivot(int nodes) {
  return std::make_unique<scal::ClusterCombination>(
      std::to_string(nodes) + " Nodes, C" + std::to_string(nodes) + "p",
      ge_config(nodes), scal::ge_pivot_algo());
}

/// Iterated SpMV over the MM ensembles with either row split.
std::unique_ptr<scal::ClusterCombination> make_spmv(
    int nodes, algos::SpmvDistribution distribution) {
  const char* tag =
      distribution == algos::SpmvDistribution::kHeterogeneousBlock ? "het"
                                                                   : "hom";
  return std::make_unique<scal::ClusterCombination>(
      std::to_string(nodes) + " Nodes, spmv-" + tag, mm_config(nodes),
      scal::spmv_algo(/*sweeps=*/50, distribution));
}

/// nnz-weighted dist::imbalance of the row split `combo` uses at size n.
double spmv_imbalance_at(const scal::ClusterCombination& combo,
                         std::int64_t n,
                         algos::SpmvDistribution distribution) {
  return algos::spmv_row_split(
             algos::make_synthetic_csr(n, algos::SpmvOptions{}.seed),
             combo.rank_speeds(), distribution)
      .work_imbalance;
}

/// One row per size: n, then each curve's E_s at that size.
void add_curve_rows(RunResult& result, const std::vector<std::int64_t>& sizes,
                    const std::vector<scal::EfficiencyCurve>& curves) {
  for (std::size_t s = 0; s < sizes.size(); ++s) {
    std::vector<Value> cells{Value(sizes[s])};
    for (const auto& curve : curves) {
      cells.push_back(Value::fixed(curve.samples[s].speed_efficiency, 4));
    }
    result.add_row(std::move(cells));
  }
}

// ---- SUMMA: speed-efficiency curves + psi vs the 1D row algorithm -------

RunResult summa_mm(const RunContext& context) {
  RunResult result;
  result.scenario = "summa_mm_scalability";
  result.title = "SUMMA  Speed-efficiency on a 2D speed-balanced grid";
  std::ostringstream os;
  os << artifact_header(
      result.title,
      "SUMMA over the MM ensembles; same workload and inputs as the row "
      "algorithm, 2D block-cyclic tiles and panel broadcasts instead of "
      "row blocks. Baseline column: row MM on the 8-node ensemble.");

  std::vector<std::int64_t> sizes;
  for (std::int64_t n = 32; n <= 512; n += 32) sizes.push_back(n);

  result.columns = {"n"};
  std::vector<scal::EfficiencyCurve> curves;
  for (int nodes : kDist2dNodeCounts) {
    auto combo = make_summa(nodes);
    curves.push_back(
        scal::sample_efficiency_curve(*combo, sizes, context.runner));
    result.columns.push_back("es_" + std::to_string(nodes) + "nodes");
  }
  auto row_mm = make_mm(8);
  curves.push_back(
      scal::sample_efficiency_curve(*row_mm, sizes, context.runner));
  result.columns.push_back("es_row_mm_8nodes");
  add_curve_rows(result, sizes, curves);
  os << result.to_csv(curve_headings(result.columns)) << '\n';

  // psi between ladder rungs at the paper's MM target, vs the row ladder.
  std::vector<std::unique_ptr<scal::ClusterCombination>> owned;
  std::vector<scal::Combination*> summa_ptrs;
  std::vector<scal::Combination*> mm_ptrs;
  for (int nodes : kDist2dNodeCounts) {
    owned.push_back(make_summa(nodes));
    summa_ptrs.push_back(owned.back().get());
  }
  for (int nodes : kDist2dNodeCounts) {
    owned.push_back(make_mm(nodes));
    mm_ptrs.push_back(owned.back().get());
  }
  const auto summa_series =
      scal::scalability_series(summa_ptrs, kMmTargetEs, context.runner);
  const auto mm_series =
      scal::scalability_series(mm_ptrs, kMmTargetEs, context.runner);

  Table table("Isospeed-efficiency scalability at E_s = " +
              Table::num(kMmTargetEs, 2));
  table.set_header({"Step", "psi (SUMMA)", "psi (row MM)"});
  for (std::size_t i = 0; i < summa_series.steps.size(); ++i) {
    const auto& step = summa_series.steps[i];
    table.add_row({"psi(" + step.from + " -> " + step.to + ")",
                   Table::fixed(step.psi, 4),
                   Table::fixed(mm_series.steps[i].psi, 4)});
    result.add_scalar("psi_summa_" + std::to_string(kDist2dNodeCounts[i]) +
                          "_to_" + std::to_string(kDist2dNodeCounts[i + 1]),
                      Value::fixed(step.psi, 4));
  }
  os << table;
  os << "cumulative psi: SUMMA = "
     << Table::fixed(summa_series.cumulative_psi(), 4)
     << ", row MM = " << Table::fixed(mm_series.cumulative_psi(), 4) << '\n';
  result.add_scalar("summa_cumulative_psi",
                    Value::fixed(summa_series.cumulative_psi(), 4));
  result.add_scalar("row_mm_cumulative_psi",
                    Value::fixed(mm_series.cumulative_psi(), 4));
  result.text = os.str();
  return result;
}

// ---- Pivoted GE: curves + psi vs the pivot-free variant -----------------

RunResult ge_pivot(const RunContext& context) {
  RunResult result;
  result.scenario = "ge_pivot_scalability";
  result.title = "Pivoted GE  Speed-efficiency with partial pivoting";
  std::ostringstream os;
  os << artifact_header(
      result.title,
      "Panel-blocked GE with partial pivoting on the GE ensembles. The "
      "pivot search, row swaps, and redundant panel reconstruction are "
      "charged overhead on top of the GE workload, so each curve sits "
      "below its pivot-free counterpart (baseline column: 4 nodes).");

  const std::vector<int> ladder{2, 4, 8};
  std::vector<std::int64_t> sizes;
  for (std::int64_t n = 50; n <= 500; n += 50) sizes.push_back(n);

  result.columns = {"n"};
  std::vector<scal::EfficiencyCurve> curves;
  for (int nodes : ladder) {
    auto combo = make_ge_pivot(nodes);
    curves.push_back(
        scal::sample_efficiency_curve(*combo, sizes, context.runner));
    result.columns.push_back("es_" + std::to_string(nodes) + "nodes");
  }
  auto plain = make_ge(4);
  curves.push_back(
      scal::sample_efficiency_curve(*plain, sizes, context.runner));
  result.columns.push_back("es_pivot_free_4nodes");
  add_curve_rows(result, sizes, curves);
  os << result.to_csv(curve_headings(result.columns)) << '\n';

  std::vector<std::unique_ptr<scal::ClusterCombination>> owned;
  std::vector<scal::Combination*> pivot_ptrs;
  std::vector<scal::Combination*> plain_ptrs;
  for (int nodes : ladder) {
    owned.push_back(make_ge_pivot(nodes));
    pivot_ptrs.push_back(owned.back().get());
  }
  for (int nodes : ladder) {
    owned.push_back(make_ge(nodes));
    plain_ptrs.push_back(owned.back().get());
  }
  const auto pivot_series =
      scal::scalability_series(pivot_ptrs, kGeTargetEs, context.runner);
  const auto plain_series =
      scal::scalability_series(plain_ptrs, kGeTargetEs, context.runner);

  Table table("Isospeed-efficiency scalability at E_s = " +
              Table::num(kGeTargetEs, 2));
  table.set_header({"Step", "psi (pivoted)", "psi (pivot-free)"});
  for (std::size_t i = 0; i < pivot_series.steps.size(); ++i) {
    const auto& step = pivot_series.steps[i];
    table.add_row({"psi(" + step.from + " -> " + step.to + ")",
                   Table::fixed(step.psi, 4),
                   Table::fixed(plain_series.steps[i].psi, 4)});
    result.add_scalar("psi_pivot_" + std::to_string(ladder[i]) + "_to_" +
                          std::to_string(ladder[i + 1]),
                      Value::fixed(step.psi, 4));
  }
  os << table;
  os << "cumulative psi: pivoted = "
     << Table::fixed(pivot_series.cumulative_psi(), 4) << ", pivot-free = "
     << Table::fixed(plain_series.cumulative_psi(), 4) << '\n';
  result.add_scalar("pivot_cumulative_psi",
                    Value::fixed(pivot_series.cumulative_psi(), 4));
  result.add_scalar("pivot_free_cumulative_psi",
                    Value::fixed(plain_series.cumulative_psi(), 4));
  result.text = os.str();
  return result;
}

// ---- SpMV: het vs homogeneous row split ---------------------------------

RunResult spmv(const RunContext& context) {
  RunResult result;
  result.scenario = "spmv_imbalance";
  result.title = "SpMV  Heterogeneous vs homogeneous row split";
  std::ostringstream os;
  os << artifact_header(
      result.title,
      "Iterated CSR GEMV (memory-bound, nnz-imbalanced) on the MM "
      "ensembles. Imbalance is the nnz-weighted dist::imbalance of the row "
      "split (1.0 = proportional work); E_s from 50 timing-only sweeps. "
      "het_beats_hom pins the heterogeneity-aware split winning both.");

  const std::vector<int> ensembles{4, 8};
  const std::vector<std::int64_t> sizes{256, 512, 1024};

  result.columns = {"nodes",  "n",      "het_imbalance", "hom_imbalance",
                    "het_es", "hom_es", "het_beats_hom"};
  bool all_rows_win = true;
  for (int nodes : ensembles) {
    constexpr auto kHet = algos::SpmvDistribution::kHeterogeneousBlock;
    constexpr auto kHom = algos::SpmvDistribution::kHomogeneousBlock;
    auto het = make_spmv(nodes, kHet);
    auto hom = make_spmv(nodes, kHom);
    const auto het_measured = het->measure_many(sizes, context.runner);
    const auto hom_measured = hom->measure_many(sizes, context.runner);
    for (std::size_t s = 0; s < sizes.size(); ++s) {
      const double het_imb = spmv_imbalance_at(*het, sizes[s], kHet);
      const double hom_imb = spmv_imbalance_at(*hom, sizes[s], kHom);
      const double het_es = het_measured[s].speed_efficiency;
      const double hom_es = hom_measured[s].speed_efficiency;
      const bool wins = het_imb < hom_imb && het_es > hom_es;
      all_rows_win = all_rows_win && wins;
      result.add_row({Value(nodes), Value(sizes[s]),
                      Value::fixed(het_imb, 4), Value::fixed(hom_imb, 4),
                      Value::fixed(het_es, 4), Value::fixed(hom_es, 4),
                      Value(wins)});
    }
  }
  os << result.table({"Nodes", "N", "Imbalance (het)", "Imbalance (hom)",
                      "E_s (het)", "E_s (hom)", "het beats hom"});
  os << (all_rows_win
             ? "speed-aware row blocks win on every combination\n"
             : "NOTE: homogeneous split won somewhere above\n");
  result.add_scalar("het_beats_homogeneous_everywhere", Value(all_rows_win));
  result.text = os.str();
  return result;
}

}  // namespace

void register_dist2d_scenarios() {
  static const bool registered = [] {
    run::register_scenario(
        {"summa_mm_scalability",
         "SUMMA speed-efficiency curves and psi vs the 1D row algorithm",
         summa_mm});
    run::register_scenario(
        {"ge_pivot_scalability",
         "pivoted-GE speed-efficiency curves and psi vs pivot-free GE",
         ge_pivot});
    run::register_scenario(
        {"spmv_imbalance",
         "SpMV het vs homogeneous row split: imbalance and E_s", spmv});
    return true;
  }();
  (void)registered;
}

}  // namespace hetscale::scenarios
