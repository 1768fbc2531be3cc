// Messages and per-rank mailboxes.
//
// A Message carries both a *modeled* size in bytes (what the network model
// times) and a *real* payload (what the algorithm computes with) — virtual
// time and real data are deliberately decoupled (DESIGN.md §6.1). Payloads
// are pooled (payload.hpp), the pending queue is a vector drained by index
// rather than a deque, and the (source, tag) index is a flat table that is
// reset, not freed, on every drain — so once a mailbox is warm, delivery
// performs no heap traffic at all.
#pragma once

#include <coroutine>
#include <cstdint>
#include <optional>
#include <vector>

#include "hetscale/des/scheduler.hpp"
#include "hetscale/support/flat_table.hpp"
#include "hetscale/vmpi/payload.hpp"

namespace hetscale::vmpi {

struct Message {
  int source = 0;
  int tag = 0;
  double bytes = 0.0;           ///< modeled on-the-wire size
  Payload payload;              ///< real data (pooled buffer / scalar / bundle)
  des::SimTime arrival = 0.0;   ///< when the message is fully available
};

/// The receive queue of one rank. Exactly one coroutine (the rank itself)
/// ever receives from a mailbox, so at most one waiter is registered.
class Mailbox {
 public:
  /// Wakes go to `scheduler`: the one advancing the owning rank.
  explicit Mailbox(des::Scheduler& scheduler) : scheduler_(&scheduler) {}

  /// Deposit a message (called from the sender's coroutine). If the rank is
  /// blocked in recv, its resumption is scheduled at the message's arrival.
  void post(Message message);

  /// Remove and return the oldest pending message from `source` with `tag`
  /// (MPI's non-overtaking rule). Arrival times are NOT consulted here — the
  /// caller waits out a future arrival itself. The take pops the head of a
  /// per-(source, tag) chain — O(1) regardless of how many unrelated
  /// messages are pending, so a flat-collective root at p=4096 does not pay
  /// an O(p) scan per take.
  std::optional<Message> take_match(int source, int tag);

  /// Awaitable: suspend until a message from `source` with `tag` is posted.
  /// Only one waiter may exist. The (source, tag) is remembered while the
  /// receiver is suspended, so a deadlocked run can name what every blocked
  /// rank was waiting for (Machine::run's diagnosis).
  auto wait_for_post(int source, int tag) {
    return WaitAwaiter{*this, source, tag};
  }

  std::size_t pending_count() const { return live_count_; }

  /// The (source, tag) of a receiver currently suspended on this mailbox.
  struct WaitingRecv {
    int source = 0;
    int tag = 0;
  };
  std::optional<WaitingRecv> waiting_recv() const { return waiting_; }

 private:
  struct WaitAwaiter {
    Mailbox& box;
    int source;
    int tag;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<> handle);
    void await_resume() const noexcept { box.waiting_.reset(); }
  };

  /// End of a chain.
  static constexpr std::uint32_t kNoSlot = UINT32_MAX;

  /// One pending message, linked to the next slot with its (source, tag).
  struct Slot {
    Message message;
    std::uint32_t next = kNoSlot;
  };

  /// The pending slots of one (source, tag) in post order.
  struct Chain {
    std::uint32_t head = kNoSlot;  ///< kNoSlot: empty
    std::uint32_t tail = kNoSlot;
  };

  static std::uint64_t chain_key(int source, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(source))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }

  des::Scheduler* scheduler_;
  /// Every slot posted since the last full drain. A taken slot stays in
  /// place (chains link positions in pending_, so an erase would shift
  /// them); the first post after no message is pending resets the vector
  /// (its capacity is the slab) to index 0 — the overwhelmingly common
  /// case between collective phases.
  std::vector<Slot> pending_;
  std::size_t live_count_ = 0;
  /// (source, tag) -> chain. Cleared in O(1) with the slab, which is what
  /// keeps the keys of a moving broadcast root from piling up.
  FlatTable<Chain> chains_;
  std::coroutine_handle<> waiter_;
  std::optional<WaitingRecv> waiting_;
};

}  // namespace hetscale::vmpi
