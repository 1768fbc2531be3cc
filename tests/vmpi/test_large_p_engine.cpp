// The large-p engine's contracts: the binomial broadcast's and gather's
// equivalence to the flat ones for every root and world size (the
// CommMatrix pins exactly what each family puts on the wire), the
// mailbox's (source, tag) index semantics, and the DES queue /
// coroutine-frame high-water marks staying linear in p at 4096 concurrent
// rank actors.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "hetscale/des/scheduler.hpp"
#include "hetscale/obs/profiler.hpp"
#include "hetscale/vmpi/machine.hpp"
#include "hetscale/vmpi/message.hpp"
#include "test_cluster.hpp"

namespace hetscale::vmpi {
namespace {

using des::Task;

/// One bcast of `value` from `root` under `tuning`: asserts delivery on
/// every rank, then returns {total messages, total bytes, elapsed}.
struct BcastRun {
  std::uint64_t messages = 0;
  double bytes = 0.0;
  double elapsed = 0.0;
};

BcastRun run_bcast_traced(int p, int root, const CollectiveTuning& tuning) {
  auto machine = Machine::switched(test_cluster(p), {}, tuning);
  auto& tracer = machine.enable_tracing();
  auto delivered = std::make_shared<int>(0);
  const double value = 100.0 + root;
  const auto result =
      machine.run([root, value, delivered](Comm& comm) -> Task<void> {
        Payload payload;
        if (comm.rank() == root) payload = Payload(value);
        const Payload out = co_await comm.bcast(root, 64.0, payload);
        if (out.scalar() == value) ++*delivered;
      });
  EXPECT_EQ(*delivered, p) << "bcast lost the payload at p=" << p
                           << " root=" << root;
  BcastRun run;
  run.messages = tracer.comm().total_messages();
  for (const obs::CommCell& cell : tracer.comm().cells()) {
    run.bytes += cell.bytes;
  }
  run.elapsed = result.elapsed;
  return run;
}

// Satellite property suite: for every world size 1..17 and every root, the
// binomial broadcast delivers the root's payload to all ranks and its
// on-wire budget (p-1 messages of the nominal size) matches the flat
// tree's exactly — the algorithms differ only in *when* messages travel.
TEST(LargePEngine, BcastBinomialMatchesFlatForEveryRootAndWorldSize) {
  for (int p = 1; p <= 17; ++p) {
    for (int root = 0; root < p; ++root) {
      const BcastRun flat =
          run_bcast_traced(p, root, CollectiveTuning::legacy_flat());
      const BcastRun binomial =
          run_bcast_traced(p, root, CollectiveTuning::tree());
      EXPECT_EQ(flat.messages, static_cast<std::uint64_t>(p - 1));
      EXPECT_EQ(binomial.messages, flat.messages)
          << "p=" << p << " root=" << root;
      EXPECT_DOUBLE_EQ(binomial.bytes, flat.bytes)
          << "p=" << p << " root=" << root;
    }
  }
}

/// Totals of one gather: every message, and the part delivered to the root.
struct GatherRun {
  std::uint64_t messages = 0;
  double bytes = 0.0;
  double bytes_to_root = 0.0;
};

/// One gather to `root` under `tuning`, rank r contributing the scalar
/// 10r + 0.5 as 8(r + 1) modeled bytes: asserts the root holds every
/// rank's scalar at that rank's index and the other ranks an empty vector,
/// then totals the gather phase of the traced CommMatrix.
GatherRun run_gather_traced(int p, int root, const CollectiveTuning& tuning) {
  auto machine = Machine::switched(test_cluster(p), {}, tuning);
  auto& tracer = machine.enable_tracing();
  machine.run([p, root](Comm& comm) -> Task<void> {
    const int me = comm.rank();
    const std::vector<Payload> parts =
        co_await comm.gather(root, 8.0 * (me + 1), Payload(10.0 * me + 0.5));
    if (me != root) {
      EXPECT_TRUE(parts.empty()) << "p=" << p << " root=" << root
                                 << " rank=" << me;
      co_return;
    }
    EXPECT_EQ(parts.size(), static_cast<std::size_t>(p))
        << "p=" << p << " root=" << root;
    for (std::size_t r = 0; r < parts.size(); ++r) {
      EXPECT_TRUE(parts[r].is_scalar() && parts[r].scalar() == 10.0 * r + 0.5)
          << "p=" << p << " root=" << root << " part=" << r;
    }
  });
  GatherRun run;
  for (const obs::CommCell& cell : tracer.comm().cells()) {
    EXPECT_EQ(cell.phase, static_cast<int>(obs::CommPhase::kGather));
    run.messages += cell.messages;
    run.bytes += cell.bytes;
    if (cell.dst == root) run.bytes_to_root += cell.bytes;
  }
  return run;
}

// Gather property suite: for every world size 1..17 and every root, both
// families send p-1 messages that deliver every other rank's bytes to the
// root. The flat family sends each contribution once; the binomial tree
// forwards rank r's contribution once per set bit of its virtual rank
// (r - root mod p), inside the bundles of the subtrees it passes through.
TEST(LargePEngine, GatherBinomialMatchesFlatForEveryRootAndWorldSize) {
  for (int p = 1; p <= 17; ++p) {
    for (int root = 0; root < p; ++root) {
      double contributed = 0.0;
      double forwarded = 0.0;
      for (int r = 0; r < p; ++r) {
        if (r == root) continue;
        const double bytes = 8.0 * (r + 1);
        const auto vrank = static_cast<unsigned>((r - root + p) % p);
        contributed += bytes;
        forwarded += std::popcount(vrank) * bytes;
      }
      const GatherRun flat =
          run_gather_traced(p, root, CollectiveTuning::legacy_flat());
      const GatherRun binomial =
          run_gather_traced(p, root, CollectiveTuning::tree());
      EXPECT_EQ(flat.messages, static_cast<std::uint64_t>(p - 1));
      EXPECT_EQ(binomial.messages, flat.messages)
          << "p=" << p << " root=" << root;
      EXPECT_DOUBLE_EQ(flat.bytes_to_root, contributed);
      EXPECT_DOUBLE_EQ(binomial.bytes_to_root, flat.bytes_to_root)
          << "p=" << p << " root=" << root;
      EXPECT_DOUBLE_EQ(flat.bytes, contributed);
      EXPECT_DOUBLE_EQ(binomial.bytes, forwarded)
          << "p=" << p << " root=" << root;
    }
  }
}

// Bit-identical virtual time across repeated runs — the collectives are
// deterministic functions of (p, root, tuning), nothing else.
TEST(LargePEngine, BcastElapsedIsBitIdenticalAcrossRuns) {
  for (const auto& tuning :
       {CollectiveTuning::legacy_flat(), CollectiveTuning::tree()}) {
    const BcastRun first = run_bcast_traced(13, 4, tuning);
    const BcastRun again = run_bcast_traced(13, 4, tuning);
    EXPECT_EQ(first.elapsed, again.elapsed);
    EXPECT_EQ(first.messages, again.messages);
  }
}

Message make_message(int source, int tag, double value) {
  return Message{source, tag, /*bytes=*/8.0, Payload(value), /*arrival=*/0.0};
}

// The (source, tag) index takes messages in post order per key.
TEST(LargePEngine, MailboxIndexedTakeIsFifoPerKey) {
  des::Scheduler scheduler;
  Mailbox box(scheduler);
  box.post(make_message(1, 7, 1.0));
  box.post(make_message(1, 7, 2.0));
  box.post(make_message(2, 7, 3.0));
  EXPECT_EQ(box.pending_count(), 3u);

  auto first = box.take_match(1, 7);
  ASSERT_TRUE(first.has_value());
  EXPECT_DOUBLE_EQ(first->payload.scalar(), 1.0);
  auto second = box.take_match(1, 7);
  ASSERT_TRUE(second.has_value());
  EXPECT_DOUBLE_EQ(second->payload.scalar(), 2.0);
  EXPECT_FALSE(box.take_match(1, 7).has_value());

  auto other = box.take_match(2, 7);
  ASSERT_TRUE(other.has_value());
  EXPECT_DOUBLE_EQ(other->payload.scalar(), 3.0);
  EXPECT_EQ(box.pending_count(), 0u);
}

// Tag churn (a fresh tag per step, as pipelined GE mints) with a full
// drain between steps: the key table must recycle without ever matching a
// stale slot.
TEST(LargePEngine, MailboxIndexSurvivesKeyChurnAndDrains) {
  des::Scheduler scheduler;
  Mailbox box(scheduler);
  for (int step = 0; step < 200; ++step) {
    box.post(make_message(0, step, step + 0.5));
    box.post(make_message(1, step, step + 0.25));
    EXPECT_FALSE(box.take_match(2, step).has_value());
    auto a = box.take_match(0, step);
    ASSERT_TRUE(a.has_value());
    EXPECT_DOUBLE_EQ(a->payload.scalar(), step + 0.5);
    auto b = box.take_match(1, step);
    ASSERT_TRUE(b.has_value());
    EXPECT_DOUBLE_EQ(b->payload.scalar(), step + 0.25);
    EXPECT_FALSE(box.take_match(0, step).has_value());
    EXPECT_EQ(box.pending_count(), 0u);
  }
}

// 4096 concurrent rank actors: the ladder queue's high-water mark and the
// live coroutine-frame peak must stay linear in p (each rank contributes
// O(1) pending events and a bounded coroutine stack), not p log p or p^2 —
// the memory contract the large-p scenarios rely on.
TEST(LargePEngine, FourKActorsKeepQueueAndFramesLinear) {
  constexpr int kRanks = 4096;
  obs::Profiler profiler;
  obs::ProfilerScope scope(profiler);
  auto machine = Machine::switched(test_cluster(kRanks));
  machine.run([](Comm& comm) -> Task<void> {
    co_await comm.barrier();
    (void)co_await comm.gather(0, 8.0, Payload(1.0));
    co_await comm.barrier();
  });
  ASSERT_EQ(profiler.runs(), 1u);
  const obs::RunProfile run = profiler.sorted_runs().front();
  EXPECT_GT(run.des_queue_depth_max, 0u);
  EXPECT_LE(run.des_queue_depth_max, 4u * kRanks);
  EXPECT_GT(run.frame_live_peak, static_cast<std::size_t>(kRanks));
  EXPECT_LE(run.frame_live_peak, 8u * kRanks);
}

}  // namespace
}  // namespace hetscale::vmpi
