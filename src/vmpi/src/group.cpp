#include "hetscale/vmpi/group.hpp"

#include <algorithm>
#include <utility>

#include "hetscale/support/error.hpp"
#include "hetscale/vmpi/trace.hpp"

namespace hetscale::vmpi {

Group::Group(Comm& comm, std::vector<int> members)
    : comm_(&comm), members_(std::move(members)), index_(-1) {
  HETSCALE_REQUIRE(!members_.empty(), "group needs at least one member");
  for (std::size_t i = 0; i < members_.size(); ++i) {
    const int world = members_[i];
    HETSCALE_REQUIRE(world >= 0 && world < comm.size(),
                     "group member outside the world communicator");
    if (world == comm.rank()) index_ = static_cast<int>(i);
    for (std::size_t j = i + 1; j < members_.size(); ++j) {
      HETSCALE_REQUIRE(members_[j] != world, "duplicate group member");
    }
  }
  HETSCALE_REQUIRE(index_ >= 0, "calling rank is not a group member");
}

int Group::world_rank(int index) const {
  HETSCALE_REQUIRE(index >= 0 && index < size(), "group index out of range");
  return members_[static_cast<std::size_t>(index)];
}

des::Task<Payload> Group::bcast(int root_index, int tag, double bytes,
                                Payload payload) {
  HETSCALE_REQUIRE(root_index >= 0 && root_index < size(),
                   "group root out of range");
  if (size() == 1) co_return payload;
  // Mark this lane for the CommMatrix: group traffic rides on
  // caller-chosen tags, so the phase cannot be derived from the tag. The
  // mark must be cleared before every co_return — the coroutine frame may
  // be destroyed at an unrelated virtual time.
  TraceRecorder* tracer = comm_->tracer();
  const int lane = comm_->rank();
  if (tracer != nullptr) {
    tracer->set_lane_phase(lane, obs::CommPhase::kGroupBcast);
  }
  if (index_ == root_index) {
    // Flat tree in group-index order, skipping self — mirrors Comm's small
    // bcast (linear in the group size, the paper's measured shape).
    for (int i = 0; i < size(); ++i) {
      if (i == root_index) continue;
      Payload copy = payload;
      co_await comm_->send(world_rank(i), tag, bytes, std::move(copy));
    }
    if (tracer != nullptr) tracer->clear_lane_phase(lane);
    co_return payload;
  }
  Message message = co_await comm_->recv(world_rank(root_index), tag);
  if (tracer != nullptr) tracer->clear_lane_phase(lane);
  co_return message.payload;
}

}  // namespace hetscale::vmpi
