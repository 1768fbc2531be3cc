#include "hetscale/vmpi/message.hpp"

#include <algorithm>
#include <utility>

#include "hetscale/support/error.hpp"

namespace hetscale::vmpi {

void Mailbox::post(Message message) {
  const des::SimTime wake_at =
      std::max(scheduler_->now(), message.arrival);
  const int source = message.source;
  const int tag = message.tag;
  if (live_count_ == 0) {
    pending_.clear();  // keeps capacity — the slab is reused
    chains_.clear();   // O(1), keeps capacity: every chain reads as empty
  }
  HETSCALE_CHECK(pending_.size() < kNoSlot, "mailbox slot index overflow");
  const auto slot = static_cast<std::uint32_t>(pending_.size());
  Chain& chain = *chains_.try_emplace(chain_key(source, tag)).first;
  if (chain.head == kNoSlot) {
    chain.head = slot;
  } else {
    pending_[chain.tail].next = slot;
  }
  chain.tail = slot;
  pending_.push_back(Slot{std::move(message)});
  ++live_count_;
  if (waiter_) {
    // Wake the waiting recv only if THIS message matches what it asked for.
    // (A spurious wake would not be a correctness bug — the recv re-checks
    // the queue — but it could complete the recv at the non-matching
    // message's arrival time instead of the matching one's, making timing
    // depend on cross-source post order. Gating keeps recv completion a
    // function of the matching message alone, which is what lets the
    // partitioned scheduler batch cross-partition deliveries.)
    if (waiting_->source == source && waiting_->tag == tag) {
      // Waking at the arrival time makes "recv completes at max(call time,
      // arrival)" emerge.
      scheduler_->schedule_at(wake_at, std::exchange(waiter_, nullptr));
    }
  }
}

std::optional<Message> Mailbox::take_match(int source, int tag) {
  Chain* chain = chains_.find(chain_key(source, tag));
  if (chain == nullptr || chain->head == kNoSlot) return std::nullopt;
  Slot& slot = pending_[chain->head];
  chain->head = slot.next;
  --live_count_;
  return std::move(slot.message);
}

void Mailbox::WaitAwaiter::await_suspend(std::coroutine_handle<> handle) {
  HETSCALE_CHECK(box.waiter_ == nullptr,
                 "two concurrent receives on one rank's mailbox");
  box.waiter_ = handle;
  box.waiting_ = WaitingRecv{source, tag};
}

}  // namespace hetscale::vmpi
