// Reference implementation of the mailbox's matching, kept for differential
// tests: a node-based std::unordered_map from (source, tag) to a FIFO of
// that key's pending messages. Simple and slow; vmpi::Mailbox must take the
// same messages in the same order and report the same pending count.
// Wake-ups are out of scope: this mailbox has no waiter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>

#include "hetscale/vmpi/message.hpp"

namespace hetscale::vmpi::reference {

class Mailbox {
 public:
  void post(Message message);
  std::optional<Message> take_match(int source, int tag);
  std::size_t pending_count() const { return live_count_; }

 private:
  std::unordered_map<std::uint64_t, std::deque<Message>> queues_;
  std::size_t live_count_ = 0;
};

}  // namespace hetscale::vmpi::reference
