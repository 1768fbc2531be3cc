#include "reference_mailbox.hpp"

#include <utility>

namespace hetscale::vmpi::reference {

namespace {

// A drained index with more keys than this is freed, not recycled.
constexpr std::size_t kIndexKeyCap = 64;

std::uint64_t index_key(int source, int tag) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(source))
          << 32) |
         static_cast<std::uint32_t>(tag);
}

}  // namespace

void Mailbox::post(Message message) {
  SlotQueue& queue = index_[index_key(message.source, message.tag)];
  if (queue.epoch != drain_epoch_) {
    queue.slots.clear();
    queue.head = 0;
    queue.epoch = drain_epoch_;
  }
  queue.slots.push_back(pending_.size());
  pending_.push_back(std::move(message));
  ++live_count_;
}

std::optional<Message> Mailbox::take_match(int source, int tag) {
  if (source != kAnySource && tag != kAnyTag) {
    const auto it = index_.find(index_key(source, tag));
    if (it == index_.end()) return std::nullopt;
    SlotQueue& queue = it->second;
    if (queue.epoch != drain_epoch_) return std::nullopt;
    while (queue.head < queue.slots.size() &&
           pending_[queue.slots[queue.head]].source == kConsumedSource) {
      ++queue.head;
    }
    if (queue.head == queue.slots.size()) {
      queue.slots.clear();
      queue.head = 0;
      return std::nullopt;
    }
    const std::size_t slot = queue.slots[queue.head++];
    if (queue.head == queue.slots.size()) {
      queue.slots.clear();
      queue.head = 0;
    }
    return consume(slot);
  }
  for (std::size_t i = head_; i < pending_.size(); ++i) {
    const Message& candidate = pending_[i];
    if (candidate.source == kConsumedSource) continue;
    const bool source_ok = source == kAnySource || candidate.source == source;
    const bool tag_ok = tag == kAnyTag || candidate.tag == tag;
    if (source_ok && tag_ok) return consume(i);
  }
  return std::nullopt;
}

std::optional<Message> Mailbox::consume(std::size_t slot) {
  Message found = std::move(pending_[slot]);
  pending_[slot].source = kConsumedSource;
  pending_[slot].payload = Payload{};
  --live_count_;
  if (slot == head_) {
    while (head_ < pending_.size() &&
           pending_[head_].source == kConsumedSource) {
      ++head_;
    }
  }
  if (head_ == pending_.size()) {
    pending_.clear();
    head_ = 0;
    ++drain_epoch_;
    if (index_.size() > kIndexKeyCap) index_.clear();
  }
  return found;
}

}  // namespace hetscale::vmpi::reference
