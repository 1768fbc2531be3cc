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
    const bool matches =
        (waiting_->source == kAnySource || waiting_->source == source) &&
        (waiting_->tag == kAnyTag || waiting_->tag == tag);
    if (matches) {
      // Waking at the arrival time makes "recv completes at max(call time,
      // arrival)" emerge.
      scheduler_->schedule_at(wake_at, std::exchange(waiter_, nullptr));
    }
  }
}

std::optional<Message> Mailbox::take_match(int source, int tag) {
  if (source != kAnySource && tag != kAnyTag) {
    // Hot path: pop this (source, tag)'s chain. Slots consumed by a
    // wildcard take in the meantime are skipped lazily.
    Chain* chain = chains_.find(chain_key(source, tag));
    if (chain == nullptr) return std::nullopt;
    std::uint32_t slot = chain->head;
    while (slot != kNoSlot &&
           pending_[slot].message.source == kConsumedSource) {
      slot = pending_[slot].next;
    }
    if (slot == kNoSlot) {
      chain->head = kNoSlot;
      return std::nullopt;
    }
    chain->head = pending_[slot].next;
    return consume(slot);
  }
  for (std::size_t i = head_; i < pending_.size(); ++i) {
    const Message& candidate = pending_[i].message;
    if (candidate.source == kConsumedSource) continue;
    const bool source_ok = source == kAnySource || candidate.source == source;
    const bool tag_ok = tag == kAnyTag || candidate.tag == tag;
    if (source_ok && tag_ok) return consume(i);
  }
  return std::nullopt;
}

std::optional<Message> Mailbox::consume(std::size_t slot) {
  Message& pending = pending_[slot].message;
  Message found = std::move(pending);
  pending.source = kConsumedSource;
  pending.payload = Payload{};
  --live_count_;
  if (slot == head_) {
    while (head_ < pending_.size() &&
           pending_[head_].message.source == kConsumedSource) {
      ++head_;
    }
  }
  if (head_ == pending_.size()) reset_slab();
  return found;
}

void Mailbox::reset_slab() {
  pending_.clear();  // keeps capacity — the slab is reused
  head_ = 0;
  chains_.clear();  // O(1), keeps capacity: every chain reads as empty
}

void Mailbox::WaitAwaiter::await_suspend(std::coroutine_handle<> handle) {
  HETSCALE_CHECK(box.waiter_ == nullptr,
                 "two concurrent receives on one rank's mailbox");
  box.waiter_ = handle;
  box.waiting_ = WaitingRecv{source, tag};
}

}  // namespace hetscale::vmpi
