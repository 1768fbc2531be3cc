// Reference implementation of the mailbox's matching, kept for differential
// tests: pending messages in one slab vector, indexed by a node-based
// std::unordered_map from (source, tag) to a FIFO of slot positions that a
// drain epoch invalidates lazily. Simple and slow; vmpi::Mailbox must take
// the same messages in the same order and report the same pending count.
// Wake-ups are out of scope: this mailbox has no waiter.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "hetscale/vmpi/message.hpp"

namespace hetscale::vmpi::reference {

class Mailbox {
 public:
  void post(Message message);
  std::optional<Message> take_match(int source, int tag);
  std::size_t pending_count() const { return live_count_; }

 private:
  static constexpr int kConsumedSource = -2;

  struct SlotQueue {
    std::vector<std::size_t> slots;
    std::size_t head = 0;
    std::uint64_t epoch = 0;
  };

  std::optional<Message> consume(std::size_t slot);

  std::vector<Message> pending_;
  std::size_t head_ = 0;
  std::size_t live_count_ = 0;
  std::unordered_map<std::uint64_t, SlotQueue> index_;
  std::uint64_t drain_epoch_ = 0;
};

}  // namespace hetscale::vmpi::reference
