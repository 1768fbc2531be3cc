#include "hetscale/scal/algo_spec.hpp"

#include "hetscale/algos/ge.hpp"
#include "hetscale/algos/ge_pivot.hpp"
#include "hetscale/algos/jacobi.hpp"
#include "hetscale/algos/mm.hpp"
#include "hetscale/algos/summa.hpp"
#include "hetscale/numeric/linsolve.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::scal {

namespace {

template <class Result>
AlgoRun outcome(const Result& result) {
  return AlgoRun{result.work_flops, result.run.elapsed,
                 result.run.overhead_s()};
}

double ge_work(std::int64_t n) {
  return numeric::ge_workload(static_cast<double>(n));
}

double mm_work(std::int64_t n) {
  return numeric::mm_workload(static_cast<double>(n));
}

}  // namespace

AlgoSpec ge_algo() {
  return {"ge", ge_work,
          [](vmpi::Machine& machine, std::int64_t n,
             const std::vector<double>& speeds, bool with_data) {
            return outcome(algos::run_parallel_ge(
                machine, {.n = n, .with_data = with_data, .speeds = speeds}));
          }};
}

AlgoSpec mm_algo() {
  return {"mm", mm_work,
          [](vmpi::Machine& machine, std::int64_t n,
             const std::vector<double>& speeds, bool with_data) {
            return outcome(algos::run_parallel_mm(
                machine, {.n = n, .with_data = with_data, .speeds = speeds}));
          }};
}

AlgoSpec sort_algo(algos::SortSplitters splitters) {
  return {"sort:" + std::to_string(static_cast<int>(splitters)),
          algos::sort_workload,
          [splitters](vmpi::Machine& machine, std::int64_t n,
                      const std::vector<double>& speeds, bool /*with_data*/) {
            return outcome(algos::run_parallel_sort(
                machine,
                {.n = n, .splitters = splitters, .speeds = speeds}));
          },
          algos::sort_min_keys};
}

AlgoSpec jacobi_algo(std::int64_t sweeps) {
  HETSCALE_REQUIRE(sweeps >= 1, "Jacobi needs sweeps >= 1");
  return {"jacobi:sweeps=" + std::to_string(sweeps),
          [sweeps](std::int64_t n) {
            return algos::jacobi_workload(n, sweeps);
          },
          [sweeps](vmpi::Machine& machine, std::int64_t n,
                   const std::vector<double>& speeds, bool with_data) {
            return outcome(algos::run_parallel_jacobi(
                machine, {.n = n,
                          .sweeps = sweeps,
                          .with_data = with_data,
                          .speeds = speeds}));
          },
          algos::jacobi_min_n};
}

AlgoSpec summa_algo(std::int64_t tile) {
  HETSCALE_REQUIRE(tile >= 1, "SUMMA needs tile >= 1");
  return {"summa:tile=" + std::to_string(tile), mm_work,
          [tile](vmpi::Machine& machine, std::int64_t n,
                 const std::vector<double>& speeds, bool with_data) {
            return outcome(algos::run_parallel_summa(
                machine, {.n = n,
                          .tile = tile,
                          .with_data = with_data,
                          .speeds = speeds}));
          }};
}

AlgoSpec ge_pivot_algo(std::int64_t panel) {
  HETSCALE_REQUIRE(panel >= 1, "pivoted GE needs panel >= 1");
  return {"ge_pivot:panel=" + std::to_string(panel), ge_work,
          [panel](vmpi::Machine& machine, std::int64_t n,
                  const std::vector<double>& speeds, bool with_data) {
            algos::GePivotOptions options;
            options.n = n;
            options.panel = panel;
            options.with_data = with_data;
            options.speeds = speeds;
            return outcome(algos::run_parallel_ge_pivot(machine, options));
          }};
}

AlgoSpec spmv_algo(std::int64_t sweeps,
                   algos::SpmvDistribution distribution) {
  HETSCALE_REQUIRE(sweeps >= 1, "SpMV needs sweeps >= 1");
  const bool het =
      distribution == algos::SpmvDistribution::kHeterogeneousBlock;
  return {"spmv:sweeps=" + std::to_string(sweeps) +
              (het ? ",dist=het" : ",dist=hom"),
          [sweeps](std::int64_t n) {
            const auto nnz =
                algos::make_synthetic_csr(n, algos::SpmvOptions{}.seed).nnz();
            return static_cast<double>(sweeps) * 2.0 *
                   static_cast<double>(nnz);
          },
          [sweeps, distribution](vmpi::Machine& machine, std::int64_t n,
                                 const std::vector<double>& speeds,
                                 bool with_data) {
            return outcome(algos::run_parallel_spmv(
                machine, {.n = n,
                          .sweeps = sweeps,
                          .with_data = with_data,
                          .distribution = distribution,
                          .speeds = speeds}));
          }};
}

}  // namespace hetscale::scal
