// Timeline: a FIFO-serialized resource in virtual time.
//
// Network media (a shared Ethernet segment, a NIC injection port) can carry
// one frame at a time; a Timeline answers "if a job of length d is submitted
// at time t, when does it start and finish?" analytically, without needing a
// blocking queue of coroutines.
#pragma once

#include "hetscale/des/scheduler.hpp"

namespace hetscale::des {

class Timeline {
 public:
  /// Reserve `duration` seconds starting no earlier than `earliest`.
  /// Returns the completion time; the start is max(earliest, previous
  /// completion) — strict FIFO in submission order.
  SimTime reserve(SimTime earliest, SimTime duration);

  /// Time at which the resource next becomes free.
  SimTime free_at() const { return free_at_; }

 private:
  SimTime free_at_ = 0.0;
};

}  // namespace hetscale::des
