// Synthetic span DAGs for the critical-path walker. Every test checks the
// telescoping invariant (category totals sum to elapsed) alongside the
// specific attribution it stages.
#include "hetscale/obs/critical_path.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "hetscale/obs/span.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::obs {
namespace {

void expect_telescoping(const CriticalPath& path) {
  EXPECT_GE(path.compute_s, 0.0);
  EXPECT_GE(path.comm_s, 0.0);
  EXPECT_GE(path.wait_s, 0.0);
  EXPECT_GE(path.fault_s, 0.0);
  EXPECT_NEAR(path.total_s(), path.elapsed_s, 1e-9 * (1.0 + path.elapsed_s));
  // Segments must partition [0, elapsed] in order, with no gaps.
  double cursor = 0.0;
  for (const PathSegment& segment : path.segments) {
    EXPECT_DOUBLE_EQ(segment.begin, cursor);
    EXPECT_GT(segment.end, segment.begin);
    cursor = segment.end;
  }
  if (!path.segments.empty()) {
    EXPECT_NEAR(cursor, path.elapsed_s, 1e-12 * (1.0 + path.elapsed_s));
  }
}

TEST(CriticalPath, EmptyStoreIsAllWait) {
  SpanStore store;
  const CriticalPath path = critical_path(store, {}, 3.0);
  EXPECT_DOUBLE_EQ(path.wait_s, 3.0);
  EXPECT_DOUBLE_EQ(path.compute_s, 0.0);
  expect_telescoping(path);
}

TEST(CriticalPath, ZeroElapsedIsEmpty) {
  SpanStore store;
  const CriticalPath path = critical_path(store, {}, 0.0);
  EXPECT_TRUE(path.segments.empty());
  EXPECT_DOUBLE_EQ(path.total_s(), 0.0);
}

TEST(CriticalPath, SingleComputeLane) {
  SpanStore store;
  const int compute = store.intern("compute");
  store.record(0, compute, 0.0, 2.0);
  const CriticalPath path = critical_path(store, {}, 2.0);
  EXPECT_DOUBLE_EQ(path.compute_s, 2.0);
  EXPECT_DOUBLE_EQ(path.wait_s, 0.0);
  ASSERT_EQ(path.segments.size(), 1u);
  EXPECT_EQ(path.segments[0].lane, 0);
  EXPECT_EQ(path.segments[0].kind,
            static_cast<int>(PathSegmentKind::kCompute));
  expect_telescoping(path);
}

TEST(CriticalPath, GapAfterComputeIsWait) {
  SpanStore store;
  const int compute = store.intern("compute");
  store.record(0, compute, 0.0, 1.0);
  const CriticalPath path = critical_path(store, {}, 1.5);
  EXPECT_DOUBLE_EQ(path.compute_s, 1.0);
  EXPECT_DOUBLE_EQ(path.wait_s, 0.5);
  expect_telescoping(path);
}

TEST(CriticalPath, RecvHopsToTheSendingLane) {
  // Rank 1: compute [0, 0.2], recv.wait [0.2, 1.0], compute [1.0, 1.4].
  // Rank 0: compute [0, 0.9], message departs 0.9, arrives 1.0.
  // The path must run 1.4 <- 1.0 (compute on 1), hop the wire back to 0.9
  // as comm, then cover [0, 0.9] with rank 0's compute.
  SpanStore store;
  const int compute = store.intern("compute");
  const int recv = store.intern("recv.wait");
  store.record(1, compute, 0.0, 0.2);
  store.record(1, recv, 0.2, 1.0, /*peer=*/0, /*tag=*/7);
  store.record(1, compute, 1.0, 1.4);
  store.record(0, compute, 0.0, 0.9);
  const MessageLanes messages = {{PathMessage{0, 1, 7, 64.0, 0.9, 1.0}}};
  const CriticalPath path = critical_path(store, messages, 1.4);
  EXPECT_NEAR(path.compute_s, 0.9 + 0.4, 1e-12);
  EXPECT_NEAR(path.comm_s, 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(path.wait_s, 0.0);
  // The comm hop must name the sending rank as peer.
  bool saw_hop = false;
  for (const PathSegment& segment : path.segments) {
    if (segment.kind == static_cast<int>(PathSegmentKind::kComm)) {
      EXPECT_EQ(segment.peer, 0);
      EXPECT_EQ(segment.lane, 1);
      saw_hop = true;
    }
  }
  EXPECT_TRUE(saw_hop);
  expect_telescoping(path);
}

TEST(CriticalPath, EarlyMessageMakesRecvPureWait) {
  // The payload arrived before the receive was posted, so the wire never
  // gated the receiver: blocking is attributed as wait, not comm.
  SpanStore store;
  const int compute = store.intern("compute");
  const int recv = store.intern("recv.wait");
  store.record(1, compute, 0.0, 0.2);
  store.record(1, recv, 0.2, 0.5, /*peer=*/0, /*tag=*/3);
  store.record(1, compute, 0.5, 1.0);
  store.record(0, compute, 0.0, 0.05);
  const MessageLanes messages = {{PathMessage{0, 1, 3, 8.0, 0.05, 0.1}}};
  const CriticalPath path = critical_path(store, messages, 1.0);
  EXPECT_DOUBLE_EQ(path.compute_s, 0.7);
  EXPECT_DOUBLE_EQ(path.comm_s, 0.0);
  EXPECT_DOUBLE_EQ(path.wait_s, 0.3);
  expect_telescoping(path);
}

TEST(CriticalPath, FaultSpansAreCharged) {
  SpanStore store;
  const int compute = store.intern("compute");
  const int rework = store.intern("fault.rework");
  store.record(0, compute, 0.0, 1.0);
  store.record(0, rework, 1.0, 1.6);
  store.record(0, compute, 1.6, 2.0);
  const CriticalPath path = critical_path(store, {}, 2.0);
  EXPECT_NEAR(path.compute_s, 1.4, 1e-12);
  EXPECT_NEAR(path.fault_s, 0.6, 1e-12);
  expect_telescoping(path);
}

TEST(CriticalPath, BarrierSpansAreStructural) {
  // A barrier span covers its constituent leaf spans; the walker must see
  // through it to the nested recv.wait rather than double-charge.
  SpanStore store;
  const int barrier = store.intern("barrier");
  const int compute = store.intern("compute");
  store.record(0, barrier, 0.0, 2.0);
  store.record(0, compute, 0.5, 2.0);
  const CriticalPath path = critical_path(store, {}, 2.0);
  EXPECT_DOUBLE_EQ(path.compute_s, 1.5);
  EXPECT_DOUBLE_EQ(path.wait_s, 0.5);
  expect_telescoping(path);
}

TEST(CriticalPath, StartsFromTheLatestFinishingLane) {
  SpanStore store;
  const int compute = store.intern("compute");
  store.record(0, compute, 0.0, 1.0);
  store.record(1, compute, 0.0, 4.0);
  const CriticalPath path = critical_path(store, {}, 4.0);
  ASSERT_FALSE(path.segments.empty());
  EXPECT_EQ(path.segments.back().lane, 1);
  EXPECT_DOUBLE_EQ(path.compute_s, 4.0);
  expect_telescoping(path);
}

TEST(CriticalPath, SendChainTerminates) {
  // Two ranks ping-ponging: the walk alternates lanes and must terminate
  // within its step backstop while still telescoping.
  SpanStore store;
  const int compute = store.intern("compute");
  const int recv = store.intern("recv.wait");
  MessageLanes messages(2);
  double t = 0.0;
  for (int round = 0; round < 8; ++round) {
    const int src = round % 2;
    const int dst = 1 - src;
    store.record(src, compute, t, t + 0.1);
    store.record(dst, recv, t, t + 0.2, /*peer=*/src, /*tag=*/1);
    messages[static_cast<std::size_t>(src)].push_back(
        PathMessage{src, dst, 1, 8.0, t + 0.1, t + 0.2});
    t += 0.2;
  }
  const CriticalPath path = critical_path(store, messages, t);
  expect_telescoping(path);
  EXPECT_NEAR(path.compute_s, 0.8, 1e-12);
  EXPECT_NEAR(path.comm_s, 0.8, 1e-12);
}

TEST(CriticalPath, NegativeElapsedRejected) {
  SpanStore store;
  EXPECT_THROW(critical_path(store, {}, -1.0), PreconditionError);
}

TEST(CriticalPath, SegmentKindNames) {
  EXPECT_STREQ(path_segment_kind_name(PathSegmentKind::kCompute), "compute");
  EXPECT_STREQ(path_segment_kind_name(PathSegmentKind::kComm), "comm");
  EXPECT_STREQ(path_segment_kind_name(PathSegmentKind::kWait), "wait");
  EXPECT_STREQ(path_segment_kind_name(PathSegmentKind::kFault), "fault");
}

}  // namespace
}  // namespace hetscale::obs
