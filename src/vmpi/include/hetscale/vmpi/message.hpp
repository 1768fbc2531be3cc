// Messages and per-rank mailboxes.
//
// A Message carries both a *modeled* size in bytes (what the network model
// times) and a *real* payload (what the algorithm computes with) — virtual
// time and real data are deliberately decoupled (DESIGN.md §6.1). Payloads
// are pooled (payload.hpp), and the pending queue is a vector drained by
// index rather than a deque, so steady-state delivery performs no heap
// traffic at all.
#pragma once

#include <coroutine>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "hetscale/des/scheduler.hpp"
#include "hetscale/vmpi/payload.hpp"

namespace hetscale::vmpi {

/// Wildcards for Comm::recv.
inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

struct Message {
  int source = 0;
  int tag = 0;
  double bytes = 0.0;           ///< modeled on-the-wire size
  Payload payload;              ///< real data (pooled buffer / scalar / boxed)
  des::SimTime arrival = 0.0;   ///< when the message is fully available

  /// Convenience accessor mirroring the old std::any convention (throws
  /// std::bad_any_cast on a type mismatch, which in practice means
  /// mismatched send/recv code). Buffer payloads are read via
  /// `payload.doubles()` instead.
  template <class T>
  T value() const {
    return payload.as<T>();
  }
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

  /// Remove and return the first pending message matching (source, tag),
  /// honouring wildcards; messages are matched in post order (MPI's
  /// non-overtaking rule). Arrival times are NOT consulted here — the caller
  /// waits out a future arrival itself. Wildcard-free matches (every
  /// collective and algorithm in the tree) hit a per-(source, tag) FIFO
  /// index — O(1) regardless of how many unrelated messages are pending, so
  /// a flat-collective root at p=4096 no longer pays an O(p) scan per take.
  std::optional<Message> take_match(int source, int tag);

  /// Awaitable: suspend until the next post. Only one waiter may exist.
  /// The (source, tag) the receiver is matching is remembered while it is
  /// suspended, so a deadlocked run can name what every blocked rank was
  /// waiting for (Machine::run's diagnosis).
  auto wait_for_post(int source = kAnySource, int tag = kAnyTag) {
    return WaitAwaiter{*this, source, tag};
  }

  std::size_t pending_count() const { return live_count_; }

  /// The (source, tag) of a receiver currently suspended on this mailbox.
  struct WaitingRecv {
    int source = kAnySource;
    int tag = kAnyTag;
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

  /// Sentinel for a slot whose message was taken: slots tombstone in place
  /// (the index holds positions into pending_, so mid-erase would shift
  /// them) and the whole slab resets when it fully drains — the
  /// overwhelmingly common case between collective phases.
  static constexpr int kConsumedSource = -2;

  /// FIFO of slot positions for one (source, tag) key. `epoch` lazily
  /// invalidates the queue after a full drain without touching the map.
  struct SlotQueue {
    std::vector<std::size_t> slots;
    std::size_t head = 0;
    std::uint64_t epoch = 0;
  };

  static std::uint64_t index_key(int source, int tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(source))
            << 32) |
           static_cast<std::uint32_t>(tag);
  }

  std::optional<Message> consume(std::size_t slot);
  void reset_slab();

  des::Scheduler* scheduler_;
  /// Pending messages live in [head_, pending_.size()); popping the front
  /// advances head_ past tombstones, and the vector (its capacity is the
  /// slab) resets to index 0 whenever it fully drains.
  std::vector<Message> pending_;
  std::size_t head_ = 0;
  std::size_t live_count_ = 0;
  std::unordered_map<std::uint64_t, SlotQueue> index_;
  std::uint64_t drain_epoch_ = 0;
  std::coroutine_handle<> waiter_;
  std::optional<WaitingRecv> waiting_;
};

}  // namespace hetscale::vmpi
