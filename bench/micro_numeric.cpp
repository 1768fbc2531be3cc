// Micro-benchmarks of the numeric substrate.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <span>
#include <vector>

#include "hetscale/algos/spmv.hpp"
#include "hetscale/algos/summa.hpp"
#include "hetscale/kernels/blas1.hpp"
#include "hetscale/numeric/linsolve.hpp"
#include "hetscale/numeric/matmul.hpp"
#include "hetscale/numeric/matrix.hpp"
#include "hetscale/numeric/polynomial.hpp"
#include "hetscale/support/rng.hpp"

namespace {

using namespace hetscale;
using numeric::Matrix;

void BM_SolveDense(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  const Matrix a = Matrix::random_diagonally_dominant(n, rng);
  std::vector<double> b(n, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::solve_dense(a, b));
  }
  state.SetComplexityN(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SolveDense)->Arg(64)->Arg(128)->Arg(256)->Complexity();

void BM_Multiply(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  const Matrix a = Matrix::random(n, n, rng);
  const Matrix b = Matrix::random(n, n, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::multiply(a, b));
  }
}
BENCHMARK(BM_Multiply)->Arg(64)->Arg(128)->Arg(256);

void BM_EliminateRow(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> pivot(n, 1.0);
  std::vector<double> row(n, 2.0);
  double rhs = 1.0;
  for (auto _ : state) {
    std::vector<double> work = row;
    kernels::eliminate_row(pivot, 0.5, work, rhs, 0);
    benchmark::DoNotOptimize(work.data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(n) * 8);
}
BENCHMARK(BM_EliminateRow)->Arg(256)->Arg(2048);

// The span-level blocked product the parallel MM actually calls — this is
// the PR 5 headline kernel (packed B panels + dispatched SIMD tile). Sized
// through the cache-blocking thresholds: 128 fits one panel, 512/1024 force
// multi-panel packing.
void BM_MultiplyRowsInto(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  const Matrix a = Matrix::random(n, n, rng);
  const Matrix b = Matrix::random(n, n, rng);
  std::vector<double> out(n * n);
  for (auto _ : state) {
    numeric::multiply_rows_into(a.data(), n, 0, n, b.data(), n, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * n * n * n));
}
BENCHMARK(BM_MultiplyRowsInto)->Arg(128)->Arg(512)->Arg(1024);

// GE's hot elimination kernel: m pivots applied to 16 rows, four rows per
// tile. m = 1 is one step's update (the pipelined GE and pivoted GE's panel
// step); m = 8 is the paper GE's block of eight deferred steps, which loads
// and stores each row once for all eight pivots. The flops rate counts the
// 2 * rows * m * n multiplies and subtracts (G/s = Gflop/s); bytes count
// the target rows.
void rank1_update_pivots(benchmark::State& state, std::size_t m) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::size_t kRows = 16;
  Rng rng(6);
  const Matrix block = Matrix::random(kRows, n, rng);
  std::vector<std::vector<double>> x(m, std::vector<double>(n));
  for (auto& pivot : x) {
    for (auto& v : pivot) v = rng.uniform(-1.0, 1.0);
  }
  std::vector<double> factors(kRows * m);
  for (auto& f : factors) f = rng.uniform(-1.0, 1.0);
  std::vector<const double*> xs;
  for (const auto& pivot : x) xs.push_back(pivot.data());
  std::vector<const double*> fs;
  for (std::size_t r = 0; r < kRows; ++r) fs.push_back(&factors[r * m]);
  Matrix work = block;
  std::vector<double*> rows(kRows);
  for (std::size_t r = 0; r < kRows; ++r) rows[r] = work.row(r).data();
  // No per-iteration reset: repeated y -= f*x only drifts the values
  // linearly (no subnormals, no overflow at benchmark scales), and the
  // timed region stays pure kernel.
  for (auto _ : state) {
    kernels::rank1_update(xs, n, rows, fs);
    benchmark::DoNotOptimize(work.data().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(kRows * n) * 8);
  state.counters["flops"] = benchmark::Counter(
      2.0 * static_cast<double>(kRows * m * n) *
          static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
}

void BM_Rank1Update(benchmark::State& state) { rank1_update_pivots(state, 1); }
BENCHMARK(BM_Rank1Update)->Arg(256)->Arg(2048);

void BM_Rank1UpdateBlock8(benchmark::State& state) {
  rank1_update_pivots(state, 8);
}
BENCHMARK(BM_Rank1UpdateBlock8)->Arg(256)->Arg(2048);

// The CSR row kernel the SpMV workload charges for — irregular gathers
// through the column index, so it stresses a different path than the dense
// kernels above.
void BM_SpmvRows(benchmark::State& state) {
  const auto n = state.range(0);
  const algos::CsrMatrix csr = algos::make_synthetic_csr(n, /*seed=*/45);
  Rng rng(7);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (auto& v : x) v = rng.uniform(-1.0, 1.0);
  std::vector<double> y(static_cast<std::size_t>(n));
  for (auto _ : state) {
    algos::spmv_rows(csr, 0, n, x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * csr.nnz()));
}
BENCHMARK(BM_SpmvRows)->Arg(256)->Arg(1024)->Arg(4096);

// SUMMA's local C += A_tile * B_tile update. The B tile is consumed as the
// packed panel directly, so this isolates the mm_tile4 dispatch without the
// packing cost measured in BM_MultiplyRowsInto.
void BM_SummaTileProduct(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  Rng rng(8);
  const Matrix a = Matrix::random(t, t, rng);
  const Matrix b = Matrix::random(t, t, rng);
  std::vector<double> c(t * t);
  const auto tile = static_cast<std::int64_t>(t);
  for (auto _ : state) {
    algos::summa_tile_product(a.data().data(), tile, tile, b.data().data(),
                              tile, c.data());
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(2 * t * t * t));
}
BENCHMARK(BM_SummaTileProduct)->Arg(64)->Arg(128)->Arg(256);

void BM_Polyfit(benchmark::State& state) {
  std::vector<double> xs;
  std::vector<double> ys;
  const numeric::Polynomial truth({0.1, 2e-4, -5e-8, 1e-12});
  for (double x = 50; x <= 2000; x += 50) {
    xs.push_back(x);
    ys.push_back(truth(x));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(numeric::polyfit(xs, ys, 3));
  }
}
BENCHMARK(BM_Polyfit);

}  // namespace
