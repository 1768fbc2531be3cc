// Internal: the row-cyclic frame both parallel GE programs share.
//
// The paper's GE (§4.1.1) runs in three stages. Stage 0: process 0
// broadcasts the metadata and deals the rows of [A | b] out in proportion
// to marked speed (heterogeneous cyclic). Stage 1: every step eliminates.
// Stage 2: process 0 collects the rows and back-substitutes — the
// algorithm's sequential portion, α = O(1/N). The paper GE (ge.cpp) and
// pivoted GE (ge_pivot.cpp) differ only in stage 1; this frame is their
// setup and stages 0 and 2, whose messages predict's GeOverheadModel
// prices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "charge_ledger.hpp"
#include "hetscale/des/task.hpp"
#include "hetscale/numeric/matrix.hpp"
#include "hetscale/vmpi/comm.hpp"
#include "hetscale/vmpi/machine.hpp"

namespace hetscale::algos {

/// One rank's rows of the system.
struct GeRowBlock {
  std::vector<std::int64_t> rows;  ///< owned global row indices, ascending
  /// with_data: one contiguous slab of rows.size() x (n + 1) doubles, each
  /// row holding its n coefficients followed by its rhs entry. Keeping the
  /// rhs in-row means the elimination update and the wire format are the
  /// same memory — no per-step pack/unpack copies.
  std::vector<double> slab;
};

/// The system, who owns which row, and every rank's block. One frame is
/// shared by all ranks of a run: a rank touches only its own block (and its
/// ChargeLedger slot); the root also reads the system and writes the
/// result.
struct GeRowFrame {
  /// Deal n rows over `machine`'s ranks heterogeneous-cyclically, in
  /// proportion to `speeds` (empty = measure them; see rank_speeds).
  GeRowFrame(const vmpi::Machine& machine, std::int64_t n, bool with_data,
             std::vector<double> speeds);

  /// Set a0 and b0 to the seeded random diagonally dominant system.
  void generate_system(std::uint64_t seed);

  std::size_t row_stride() const { return static_cast<std::size_t>(n + 1); }

  double* local_row(GeRowBlock& block, std::size_t local) const {
    return block.slab.data() + local * row_stride();
  }

  GeRowBlock& block_of(const vmpi::Comm& comm) {
    return blocks[static_cast<std::size_t>(comm.rank())];
  }

  std::int64_t n = 0;
  bool with_data = true;
  std::vector<int> owners;         ///< owner rank of each global row
  std::vector<GeRowBlock> blocks;  ///< indexed by rank
  numeric::Matrix a0;              ///< original system (kept for the residual)
  std::vector<double> b0;
  ChargeLedger charged;
  /// Written by the root in stage 2; only with_data.
  std::vector<double> solution;
  double residual = 0.0;  ///< ||b0 - a0 x||_inf of the solution
};

/// Stage 0: the metadata broadcast, then process 0 sends every rank its
/// rows (with_data: their slab, which fills the receiver's block).
des::Task<void> ge_distribute(vmpi::Comm& comm, GeRowFrame& frame);

/// Stage 2: every rank sends its rows to process 0, which back-substitutes
/// and (with_data) computes the solution and its residual.
des::Task<void> ge_collect(vmpi::Comm& comm, GeRowFrame& frame);

}  // namespace hetscale::algos
