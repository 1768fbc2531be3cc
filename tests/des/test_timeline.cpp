#include "hetscale/des/timeline.hpp"

#include <gtest/gtest.h>

#include "hetscale/support/error.hpp"

namespace hetscale::des {
namespace {

TEST(Timeline, IdleResourceStartsImmediately) {
  Timeline t;
  EXPECT_DOUBLE_EQ(t.reserve(5.0, 2.0), 7.0);
  EXPECT_DOUBLE_EQ(t.free_at(), 7.0);
}

TEST(Timeline, BusyResourceQueuesFifo) {
  Timeline t;
  EXPECT_DOUBLE_EQ(t.reserve(0.0, 3.0), 3.0);
  // Requested at t=1 while busy until 3: starts at 3, ends at 5.
  EXPECT_DOUBLE_EQ(t.reserve(1.0, 2.0), 5.0);
  // Requested at t=10 when already free: starts at 10.
  EXPECT_DOUBLE_EQ(t.reserve(10.0, 1.0), 11.0);
}

TEST(Timeline, ZeroDurationReservationsAllowed) {
  Timeline t;
  EXPECT_DOUBLE_EQ(t.reserve(2.0, 0.0), 2.0);
}

TEST(Timeline, ZeroDurationOccupancyBetweenBusyFrames) {
  Timeline t;
  EXPECT_DOUBLE_EQ(t.reserve(1.0, 2.0), 3.0);
  // A zero-length frame queued while the line is busy does not block the
  // queue — it "completes" the instant the line frees.
  EXPECT_DOUBLE_EQ(t.reserve(2.0, 0.0), 3.0);
  EXPECT_DOUBLE_EQ(t.reserve(3.0, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(t.free_at(), 4.0);
}

TEST(Timeline, ZeroDurationOnIdleLineAdvancesTheClockOnly) {
  Timeline t;
  EXPECT_DOUBLE_EQ(t.reserve(5.0, 0.0), 5.0);
  EXPECT_DOUBLE_EQ(t.free_at(), 5.0);
  // An earlier-stamped frame after it still queues FIFO behind the marker.
  EXPECT_DOUBLE_EQ(t.reserve(1.0, 2.0), 7.0);
}

TEST(Timeline, BackToBackFramesAtIdenticalTimestamps) {
  Timeline t;
  // Three frames submitted at the same instant serialize in submission
  // order with no gaps — strict FIFO.
  EXPECT_DOUBLE_EQ(t.reserve(5.0, 1.0), 6.0);
  EXPECT_DOUBLE_EQ(t.reserve(5.0, 1.0), 7.0);
  EXPECT_DOUBLE_EQ(t.reserve(5.0, 1.0), 8.0);
  EXPECT_DOUBLE_EQ(t.free_at(), 8.0);
}

TEST(Timeline, NegativeInputsRejected) {
  Timeline t;
  EXPECT_THROW(t.reserve(-1.0, 1.0), PreconditionError);
  EXPECT_THROW(t.reserve(1.0, -1.0), PreconditionError);
}

}  // namespace
}  // namespace hetscale::des
