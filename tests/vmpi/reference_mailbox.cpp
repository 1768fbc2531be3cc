#include "reference_mailbox.hpp"

#include <utility>

namespace hetscale::vmpi::reference {

namespace {

std::uint64_t queue_key(int source, int tag) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(source))
          << 32) |
         static_cast<std::uint32_t>(tag);
}

}  // namespace

void Mailbox::post(Message message) {
  queues_[queue_key(message.source, message.tag)].push_back(
      std::move(message));
  ++live_count_;
}

std::optional<Message> Mailbox::take_match(int source, int tag) {
  const auto it = queues_.find(queue_key(source, tag));
  if (it == queues_.end()) return std::nullopt;
  Message found = std::move(it->second.front());
  it->second.pop_front();
  if (it->second.empty()) queues_.erase(it);
  --live_count_;
  return found;
}

}  // namespace hetscale::vmpi::reference
