#include "hetscale/des/scheduler.hpp"

#include <limits>

namespace hetscale::des {

Scheduler::~Scheduler() {
  for (auto handle : roots_) {
    if (handle) handle.destroy();
  }
}

void Scheduler::schedule_overlapping(const Event& event) {
  if (event_before(event, front_)) {
    queue_.push(front_);
    front_ = event;
  } else {
    queue_.push(event);
  }
  const std::uint64_t depth = queue_.size() + 1;  // + the front slot
  if (depth > max_queue_depth_) max_queue_depth_ = depth;
}

void Scheduler::spawn(Task<void> task) {
  HETSCALE_REQUIRE(task.valid(), "cannot spawn an empty task");
  auto handle = task.release();  // scheduler takes ownership of the frame
  roots_.push_back(handle);
  schedule_at(now_, handle);
}

void Scheduler::run() {
  run_window(std::numeric_limits<SimTime>::infinity());
  check_roots();
}

void Scheduler::run_window(SimTime end) {
  // Events exactly at the window edge belong to the next window (the
  // coordinator's lower bound is inclusive, so the upper bound must be
  // exclusive to partition the event timeline without overlap).
  while (front_.handle && front_.time < end) {
    // Advance the clock and lift the handle out of the front slot, then
    // refill the slot from the ladder before resuming — the resumed
    // coroutine usually schedules its next hop straight back into the (now
    // possibly empty) front slot.
    HETSCALE_DCHECK(front_.time >= now_, "event queue went back in time");
    now_ = front_.time;
    ++events_processed_;
    const std::coroutine_handle<> handle = front_.handle;
    if (queue_.empty()) {
      front_.handle = nullptr;
    } else {
      front_ = queue_.pop_min();
    }
    handle.resume();
  }
}

SimTime Scheduler::next_event_time() const {
  return front_.handle ? front_.time
                       : std::numeric_limits<SimTime>::infinity();
}

void Scheduler::check_roots() {
  // Surface failures and deadlocks from root processes.
  for (auto handle : roots_) {
    if (!handle) continue;
    if (!handle.done()) {
      throw DeadlockError(
          "simulation deadlock: a root process is still blocked after the "
          "event queue drained (e.g. a recv with no matching send)");
    }
    if (handle.promise().exception) {
      std::rethrow_exception(handle.promise().exception);
    }
  }
}

}  // namespace hetscale::des
