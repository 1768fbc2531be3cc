// Differential tests: vmpi::Mailbox's slab-chained (source, tag) queues
// against the reference unordered_map mailbox (reference_mailbox.hpp) on
// seeded operation sequences. Every take must return the same message —
// source, tag, bytes, payload and arrival — and both sides must report the
// same pending count after every operation. The sequences cover small and
// large key sets, the rotating binomial parents of a broadcast whose root
// moves every step (with a fixed tag and with a fresh tag per step), hits
// and misses, full drains, and long stretches that never drain while
// enough distinct keys arrive to grow the key table mid-epoch.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "hetscale/des/scheduler.hpp"
#include "hetscale/vmpi/message.hpp"
#include "reference_mailbox.hpp"

namespace hetscale::vmpi {
namespace {

constexpr std::uint64_t kSeeds = 300;
constexpr int kOpsPerSeed = 3000;

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}
  int below(int n) {
    return static_cast<int>(rng_() % static_cast<unsigned>(n));
  }
  bool chance(int percent) { return below(100) < percent; }

 private:
  std::mt19937_64 rng_;
};

/// The binomial-tree parent of `rank` in a broadcast from `root` over `p`
/// ranks (the root has none): clear the lowest set bit of the virtual rank.
int binomial_parent(int rank, int root, int p) {
  const int vrank = (rank - root + p) % p;
  return ((vrank & (vrank - 1)) + root) % p;
}

struct Key {
  int source;
  int tag;
};

/// Both mailboxes, fed the same operations and compared after each.
class Twin {
 public:
  void post(int source, int tag) {
    const double id = static_cast<double>(posts_++);
    mine_.post(Message{source, tag, 8.0 * id + 0.1, Payload(id), 0.3 * id});
    reference_.post(
        Message{source, tag, 8.0 * id + 0.1, Payload(id), 0.3 * id});
    since_drain_.push_back({source, tag});
    expect_same_count();
  }

  /// Takes from both sides; true if a message was taken.
  bool take(int source, int tag) {
    std::optional<Message> got = mine_.take_match(source, tag);
    std::optional<Message> want = reference_.take_match(source, tag);
    EXPECT_EQ(got.has_value(), want.has_value())
        << "take(" << source << ", " << tag << ") after " << posts_
        << " posts";
    if (got.has_value() && want.has_value()) {
      EXPECT_EQ(got->source, want->source);
      EXPECT_EQ(got->tag, want->tag);
      EXPECT_EQ(bits(got->bytes), bits(want->bytes));
      EXPECT_EQ(bits(got->payload.scalar()), bits(want->payload.scalar()));
      EXPECT_EQ(bits(got->arrival), bits(want->arrival));
    }
    expect_same_count();
    return got.has_value();
  }

  /// Takes every key posted since the last drain once per post, which
  /// empties both sides whatever was taken in between.
  void drain() {
    for (const Key& key : since_drain_) {
      if (::testing::Test::HasFailure()) return;
      take(key.source, key.tag);
    }
    since_drain_.clear();
    EXPECT_EQ(mine_.pending_count(), 0u);
  }

  std::size_t pending() const { return mine_.pending_count(); }

 private:
  void expect_same_count() {
    EXPECT_EQ(mine_.pending_count(), reference_.pending_count());
  }

  des::Scheduler scheduler_;
  Mailbox mine_{scheduler_};
  reference::Mailbox reference_;
  std::uint64_t posts_ = 0;
  std::vector<Key> since_drain_;
};

/// Where a seed's (source, tag) keys come from.
enum class Keys { kSmall, kLarge, kRotatingParent, kRotatingFreshTag };

/// The key source of one seeded sequence.
struct Fuzz {
  Fuzz(std::uint64_t seed, Keys keys) : draw(seed), keys(keys) {
    p = draw.chance(50) ? 64 : 4096;
    rank = draw.below(p);
  }

  Key next_key() {
    switch (keys) {
      case Keys::kSmall:
        return {draw.below(4), draw.below(3)};
      case Keys::kLarge:
        return {draw.below(4096), draw.below(64)};
      case Keys::kRotatingParent:
      case Keys::kRotatingFreshTag: {
        // The root moves every step (GE's pivot owner); the receiving
        // rank's parent follows it.
        if (++root % p == rank) ++root;
        const int tag = keys == Keys::kRotatingParent ? 7 : root;
        return {binomial_parent(rank, root % p, p), tag};
      }
    }
    return {0, 0};
  }

  Draw draw;
  Keys keys;
  int p = 0;
  int rank = 0;
  int root = 0;
};

constexpr int kAnchorSource = 5000;
constexpr int kAnchorTag = 1 << 30;  // above every generated tag

struct TakeCounts {
  int hits = 0;
  int drains = 0;
};

/// One seeded sequence. An anchored one posts a message first that no take
/// can match, so the mailbox never drains: its key table then holds every
/// key of the run in one epoch and must grow mid-epoch.
void run_seed(std::uint64_t seed, TakeCounts& counts) {
  const bool anchored = (seed / 4) % 3 == 0;
  Fuzz fuzz(seed, static_cast<Keys>(seed % 4));
  Twin twin;
  if (anchored) twin.post(kAnchorSource, kAnchorTag);
  std::vector<Key> posted;
  // Per-seed operation mix, so some seeds build deep backlogs.
  const int post_percent = 35 + fuzz.draw.below(30);
  for (int op = 0; op < kOpsPerSeed && !::testing::Test::HasFailure(); ++op) {
    if (fuzz.draw.chance(post_percent)) {
      const Key key = fuzz.next_key();
      twin.post(key.source, key.tag);
      posted.push_back(key);
      continue;
    }
    if (!anchored && fuzz.draw.chance(2)) {
      twin.drain();
      posted.clear();
      ++counts.drains;
      continue;
    }
    // Mostly keys that were posted (hits, also behind taken slots),
    // sometimes fresh ones (misses).
    const Key key = !posted.empty() && fuzz.draw.chance(80)
                        ? posted[static_cast<std::size_t>(fuzz.draw.below(
                              static_cast<int>(posted.size())))]
                        : fuzz.next_key();
    counts.hits += twin.take(key.source, key.tag);
  }
  if (anchored) {
    EXPECT_GE(twin.pending(), 1u);
    EXPECT_TRUE(twin.take(kAnchorSource, kAnchorTag));
  }
  twin.drain();
}

TEST(MailboxDifferential, SeededOperationSequencesMatchTheReference) {
  TakeCounts counts;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    run_seed(seed, counts);
    ASSERT_FALSE(HasFailure()) << "seed " << seed;
  }
  EXPECT_GT(counts.hits, 0);
  EXPECT_GT(counts.drains, 0);
}

// A broadcast whose root rotates over 4096 ranks, one full drain per step:
// thousands of keys come and go, each in its own epoch.
TEST(MailboxDifferential, RotatingParentsWithDrainsEveryStep) {
  constexpr int kRanks = 4096;
  Twin twin;
  for (int root = 1; root < kRanks && !HasFailure(); ++root) {
    const int parent = binomial_parent(0, root, kRanks);
    twin.post(parent, 7);
    EXPECT_FALSE(twin.take(parent, 8));
    EXPECT_TRUE(twin.take(parent, 7));
    EXPECT_EQ(twin.pending(), 0u);
  }
}

// Thousands of distinct keys in one epoch, taken by exact key in a
// different order than they arrived.
TEST(MailboxDifferential, UndrainedStretchGrowsTheKeyTable) {
  Twin twin;
  twin.post(kAnchorSource, kAnchorTag);
  for (int i = 0; i < 5000; ++i) twin.post(i % 2500, i / 2500);
  for (int i = 0; i < 300; ++i) {
    EXPECT_TRUE(twin.take(i, 1));
    EXPECT_TRUE(twin.take(2499 - i, 0));
  }
  for (int i = 4999; i >= 0 && !HasFailure(); --i) {
    twin.take(i % 2500, i / 2500);
  }
  EXPECT_EQ(twin.pending(), 1u);
  EXPECT_TRUE(twin.take(kAnchorSource, kAnchorTag));
  EXPECT_EQ(twin.pending(), 0u);
}

}  // namespace
}  // namespace hetscale::vmpi
