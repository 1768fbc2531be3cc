// Group — a sub-communicator over a subset of a Comm's ranks.
//
// SUMMA broadcasts A-panels along process-grid rows and B-panels along
// columns; neither is a world collective. A Group wraps a Comm plus an
// ordered member list (world ranks) and broadcasts over just those
// members, addressing peers by *group index*.
//
// Tag discipline: group broadcasts are built from tagged point-to-point
// messages on the world Comm, so concurrent broadcasts over *overlapping*
// groups must use distinct tags. SUMMA's row groups are pairwise disjoint
// (as are its column groups), so one tag per step suffices for all rows,
// and a second for all columns. Callers own that choice — the tag is an
// explicit parameter, unlike Comm's fixed collective tags.
#pragma once

#include <vector>

#include "hetscale/des/task.hpp"
#include "hetscale/vmpi/comm.hpp"

namespace hetscale::vmpi {

class Group {
 public:
  /// `members` are world ranks, in group-index order; the calling rank must
  /// be one of them. Members must be distinct.
  Group(Comm& comm, std::vector<int> members);

  /// This rank's index within the group.
  int rank() const { return index_; }
  /// Number of members.
  int size() const { return static_cast<int>(members_.size()); }
  /// World rank of the member at a group index.
  int world_rank(int index) const;

  /// Flat-tree broadcast from the member at `root_index`: the root's
  /// payload of modeled size `bytes` is delivered to every member. All
  /// members must call with the same (root_index, tag, bytes).
  des::Task<Payload> bcast(int root_index, int tag, double bytes,
                           Payload payload);

 private:
  Comm* comm_;
  std::vector<int> members_;
  int index_;  ///< this rank's group index
};

}  // namespace hetscale::vmpi
