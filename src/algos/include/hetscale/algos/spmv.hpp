// Iterated sparse matrix-vector product (CSR GEMV) — the repo's first
// memory-bound, load-imbalanced workload.
//
// The paper's GE and MM are dense and compute-bound; their flop counts per
// row are uniform, so a proportional row split balances them almost
// perfectly. Sparse GEMV is different on both axes:
//   * it is memory-bound — a node sustains only a fraction of its dense
//     marked speed streaming CSR indices (modeled as a fixed efficiency
//     factor on Comm::compute), and
//   * the per-row cost varies with the row's nonzero count, so a split that
//     is proportional in *rows* is not proportional in *work*.
// That makes it a sharper stress of heterogeneity-aware distribution: the
// scenario compares the heterogeneous row split against the homogeneous
// block split via dist::imbalance and measured speed-efficiency.
//
// Algorithm (one rank per processor, root = process 0):
//   1. Root distributes CSR row blocks (het-block or homogeneous split of
//      the n rows) and broadcasts x.
//   2. Per sweep: every rank computes its y block (2 nnz_i flops charged at
//      the stream efficiency); the blocks trade around a ring allgather and
//      every rank assembles the next x locally.
// The matrix is synthetic and fully deterministic from (n, seed); results
// are bit-identical to the sequential CSR reference (tested).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hetscale/vmpi/machine.hpp"

namespace hetscale::algos {

/// Deterministic synthetic CSR matrix: row i holds 4..16 nonzeros (hashed
/// from the seed) at distinct sorted columns, always including the
/// diagonal.
struct CsrMatrix {
  std::int64_t n = 0;
  std::vector<std::int64_t> row_ptr;  ///< size n + 1
  std::vector<std::int64_t> cols;  ///< column per nonzero, sorted per row
  std::vector<double> vals;

  std::int64_t nnz() const { return static_cast<std::int64_t>(cols.size()); }
};

CsrMatrix make_synthetic_csr(std::int64_t n, std::uint64_t seed);

/// y[i - row_begin] = sum_k vals[k] * x[cols[k]] over row i's nonzeros in
/// ascending column order — the per-element contract the parallel run and
/// the sequential reference share. Exposed for tests and bench.
void spmv_rows(const CsrMatrix& a, std::int64_t row_begin,
               std::int64_t row_end, std::span<const double> x,
               std::span<double> y);

/// Which row split step 1 uses.
enum class SpmvDistribution {
  kHeterogeneousBlock,  ///< rows ∝ marked speed
  kHomogeneousBlock,    ///< equal rows per rank (baseline)
};

/// How step 1 splits the rows of a matrix over the ranks.
struct SpmvRowSplit {
  std::vector<std::int64_t> counts;      ///< rows per rank
  std::vector<std::int64_t> offsets;     ///< first row per rank
  std::vector<std::int64_t> nnz_counts;  ///< nonzeros per rank's block
  /// dist::imbalance of the split weighted by per-row nonzeros (1.0 =
  /// perfectly proportional *work* split).
  double work_imbalance = 0.0;
};

/// The row split of `csr` over ranks with the given marked speeds — the
/// one the parallel run uses. A pure function, no simulation.
SpmvRowSplit spmv_row_split(const CsrMatrix& csr,
                            const std::vector<double>& speeds,
                            SpmvDistribution distribution);

struct SpmvOptions {
  std::int64_t n = 0;      ///< rows / vector length (required, >= 1)
  std::int64_t sweeps = 4; ///< GEMV iterations (x <- y between sweeps)
  bool with_data = true;   ///< perform real arithmetic alongside timing
  std::uint64_t seed = 45;
  SpmvDistribution distribution = SpmvDistribution::kHeterogeneousBlock;
  std::vector<double> speeds;  ///< per-rank marked speeds; empty = measure
};

/// Fraction of the dense marked rate a rank sustains in CSR streaming
/// (memory-bound; applied as Comm::compute's efficiency).
inline constexpr double kSpmvStreamEfficiency = 0.35;

struct SpmvResult {
  vmpi::RunResult run;
  std::int64_t n = 0;
  std::int64_t nnz = 0;
  double work_flops = 0.0;     ///< sweeps * 2 * nnz
  double charged_flops = 0.0;  ///< flops actually charged (== work, tested)
  double work_imbalance = 0.0;  ///< of the row split used (SpmvRowSplit)
  /// Only populated when with_data: y after the final sweep.
  std::vector<double> y;
};

/// Run iterated SpMV on (and consuming) the given single-shot machine.
SpmvResult run_parallel_spmv(vmpi::Machine& machine,
                             const SpmvOptions& options);

}  // namespace hetscale::algos
