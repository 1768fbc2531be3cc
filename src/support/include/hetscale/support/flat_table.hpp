// Open-addressed hash table for per-message lookups.
//
// Keys are 64-bit integers that the caller packs exactly, so two distinct
// keys never share a value. The slot array has power-of-two capacity; a
// key's home slot is the top bits of a multiplicative (Fibonacci) hash, and
// collisions probe linearly. Each slot records the generation it was
// written in, and a slot from an older generation counts as empty: clear()
// is O(1) and keeps the slot array, so a table that has grown to its
// working size allocates nothing. Keys are never erased one at a time, so
// probe runs never break and no tombstones are needed.
//
// vmpi::Mailbox maps (source, tag) to its pending chain with it, and
// obs::CommMatrix maps (src, dst, phase) to its cell.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace hetscale {

template <class Value>
class FlatTable {
 public:
  /// The value stored under `key`, or nullptr.
  Value* find(std::uint64_t key) {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      Slot& slot = slots_[i];
      if (slot.generation != generation_) return nullptr;
      if (slot.key == key) return &slot.value;
    }
  }

  /// The value stored under `key` and false; for a new key, a
  /// value-initialized value and true. Pointers stay valid until a
  /// try_emplace inserts a key, or clear().
  std::pair<Value*, bool> try_emplace(std::uint64_t key) {
    if (Value* value = find(key)) return {value, false};
    // At most half full, so every probe run ends at an empty slot.
    if (2 * (size_ + 1) > slots_.size()) grow();
    Slot& slot = empty_slot(key);
    slot = Slot{key, generation_, Value{}};
    ++size_;
    return {&slot.value, true};
  }

  /// Calls f(value) for every stored value, in slot order.
  template <class F>
  void for_each(F f) const {
    for (const Slot& slot : slots_) {
      if (slot.generation == generation_) f(slot.value);
    }
  }

  /// Forget every key in O(1); the capacity stays.
  void clear() {
    ++generation_;
    size_ = 0;
  }

  std::size_t size() const { return size_; }

 private:
  static constexpr std::size_t kMinCapacity = 8;

  struct Slot {
    std::uint64_t key = 0;
    std::uint64_t generation = 0;  ///< never equals generation_ >= 1 when new
    Value value{};
  };

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  /// The first free slot of `key`'s probe run.
  Slot& empty_slot(std::uint64_t key) {
    std::size_t i = home(key);
    while (slots_[i].generation == generation_) i = (i + 1) & mask();
    return slots_[i];
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? kMinCapacity : 2 * old.size(), Slot{});
    shift_ = 64 - std::countr_zero(slots_.size());
    for (const Slot& slot : old) {
      if (slot.generation == generation_) empty_slot(slot.key) = slot;
    }
  }

  std::vector<Slot> slots_;
  std::uint64_t generation_ = 1;
  std::size_t size_ = 0;
  int shift_ = 64;
};

}  // namespace hetscale
