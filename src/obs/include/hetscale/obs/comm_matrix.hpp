// CommMatrix — per-rank x per-rank communication totals, split by
// collective phase.
//
// The virtual-MPI runtime records one entry per (src, dst, phase) cell:
// message count, nominal on-wire bytes, and the receiver-side wait time
// accumulated while blocked for a message from `src`. Phases name the
// collective a message belonged to (p2p, bcast, barrier, the van de Geijn
// scatter/ring legs, group broadcasts, ...) so a hotspot can be tied to
// the algorithm step that produced it, not just the rank pair.
//
// Storage: cells live in an open-addressed table keyed by (src, dst, phase)
// (support/flat_table.hpp), so a record costs one probe and, once the cell
// exists, no allocation. Determinism: cells() sorts a copy into the canonical
// (src, dst, phase) order, and the floating-point totals sum in that order,
// so neither depends on the recording interleaving; all values are
// virtual-time or counts. The matrix has no locks: a vmpi::TraceRecorder
// keeps one per lane, written only by that lane's rank, and sums them for
// readers.
#pragma once

#include <compare>
#include <cstdint>
#include <string>
#include <vector>

#include "hetscale/support/flat_table.hpp"

namespace hetscale::obs {

/// The collective phase a message belongs to. kP2p covers algorithm-level
/// point-to-point traffic; the rest name the vmpi collective (or Group
/// broadcast) whose implementation produced the message.
enum class CommPhase : int {
  kP2p = 0,
  kBcast,
  kBcastScatter,  ///< van de Geijn long-broadcast scatter leg
  kBcastRing,     ///< van de Geijn long-broadcast ring leg
  kBarrier,
  kGather,
  kAllgather,
  kAlltoall,
  kGroupBcast,  ///< vmpi::Group row/column panel broadcast
  // Exports print phase names, never these ints, and cells sort by them:
  // keep the order when adding or removing a phase.
  kBcastDoubling,  ///< long-broadcast doubling-allgather leg
};

/// Stable lowercase name of a phase ("p2p", "bcast", ...).
const std::string& comm_phase_name(CommPhase phase);

/// One (src, dst, phase) cell of the matrix. `phase` is the CommPhase as
/// int so the defaulted ordering (what deterministic folds sort by) stays
/// trivially total.
struct CommCell {
  int src = 0;
  int dst = 0;
  int phase = 0;
  std::uint64_t messages = 0;
  double bytes = 0.0;
  double wait_s = 0.0;

  auto operator<=>(const CommCell&) const = default;
};

/// Ranks must lie in [0, 2^28): a cell's key packs (src, dst, phase) into
/// 64 bits. Every simulated machine is orders of magnitude smaller.
class CommMatrix {
 public:
  /// Record one message sent src -> dst in `phase` (sender side).
  void record_send(int src, int dst, CommPhase phase, double bytes);

  /// Charge `wait_s` seconds of receiver blocking to the src -> dst cell
  /// (receiver side; dst is the waiting rank).
  void record_wait(int src, int dst, CommPhase phase, double wait_s);

  bool empty() const { return cells_.size() == 0; }
  std::size_t cell_count() const { return cells_.size(); }

  std::uint64_t total_messages() const;
  double total_bytes() const;
  double total_wait_s() const;

  /// All cells in canonical (src, dst, phase) order.
  std::vector<CommCell> cells() const;

  /// Merge another matrix cell-wise (used when folding runs).
  CommMatrix& operator+=(const CommMatrix& other);

 private:
  CommCell& cell(int src, int dst, CommPhase phase);

  /// (src, dst, phase) -> its cell; cells() sorts a copy.
  FlatTable<CommCell> cells_;
};

}  // namespace hetscale::obs
