#include "hetscale/obs/comm_matrix.hpp"

#include <gtest/gtest.h>

namespace hetscale::obs {
namespace {

TEST(CommMatrix, StartsEmpty) {
  CommMatrix m;
  EXPECT_TRUE(m.empty());
  EXPECT_EQ(m.cell_count(), 0u);
  EXPECT_EQ(m.total_messages(), 0u);
  EXPECT_DOUBLE_EQ(m.total_bytes(), 0.0);
  EXPECT_DOUBLE_EQ(m.total_wait_s(), 0.0);
  EXPECT_TRUE(m.cells().empty());
}

TEST(CommMatrix, SendsAccumulateIntoOneCell) {
  CommMatrix m;
  m.record_send(0, 1, CommPhase::kP2p, 100.0);
  m.record_send(0, 1, CommPhase::kP2p, 150.0);
  ASSERT_EQ(m.cell_count(), 1u);
  const CommCell cell = m.cells().front();
  EXPECT_EQ(cell.src, 0);
  EXPECT_EQ(cell.dst, 1);
  EXPECT_EQ(cell.phase, static_cast<int>(CommPhase::kP2p));
  EXPECT_EQ(cell.messages, 2u);
  EXPECT_DOUBLE_EQ(cell.bytes, 250.0);
  EXPECT_DOUBLE_EQ(cell.wait_s, 0.0);
}

TEST(CommMatrix, PhasesSplitCells) {
  CommMatrix m;
  m.record_send(0, 1, CommPhase::kP2p, 8.0);
  m.record_send(0, 1, CommPhase::kBcast, 8.0);
  EXPECT_EQ(m.cell_count(), 2u);
  EXPECT_EQ(m.total_messages(), 2u);
  EXPECT_DOUBLE_EQ(m.total_bytes(), 16.0);
}

TEST(CommMatrix, WaitChargesWithoutCountingMessages) {
  CommMatrix m;
  m.record_wait(2, 0, CommPhase::kBarrier, 0.25);
  ASSERT_EQ(m.cell_count(), 1u);
  const CommCell cell = m.cells().front();
  EXPECT_EQ(cell.src, 2);
  EXPECT_EQ(cell.dst, 0);
  EXPECT_EQ(cell.messages, 0u);
  EXPECT_DOUBLE_EQ(cell.bytes, 0.0);
  EXPECT_DOUBLE_EQ(cell.wait_s, 0.25);
  EXPECT_DOUBLE_EQ(m.total_wait_s(), 0.25);
}

TEST(CommMatrix, CellsAreCanonicallyOrdered) {
  // Record deliberately out of order; cells() must come back sorted by
  // (src, dst, phase) regardless.
  CommMatrix m;
  m.record_send(1, 0, CommPhase::kP2p, 1.0);
  m.record_send(0, 2, CommPhase::kBcast, 1.0);
  m.record_send(0, 1, CommPhase::kP2p, 1.0);
  m.record_send(0, 1, CommPhase::kBcast, 1.0);
  const auto cells = m.cells();
  ASSERT_EQ(cells.size(), 4u);
  for (std::size_t i = 1; i < cells.size(); ++i) {
    EXPECT_LT(std::tie(cells[i - 1].src, cells[i - 1].dst,
                       cells[i - 1].phase),
              std::tie(cells[i].src, cells[i].dst, cells[i].phase));
  }
}

TEST(CommMatrix, MergeSumsCellwise) {
  CommMatrix a;
  a.record_send(0, 1, CommPhase::kP2p, 10.0);
  a.record_wait(0, 1, CommPhase::kP2p, 0.5);
  CommMatrix b;
  b.record_send(0, 1, CommPhase::kP2p, 30.0);
  b.record_send(1, 0, CommPhase::kGather, 5.0);
  a += b;
  ASSERT_EQ(a.cell_count(), 2u);
  const auto cells = a.cells();
  EXPECT_EQ(cells[0].messages, 2u);
  EXPECT_DOUBLE_EQ(cells[0].bytes, 40.0);
  EXPECT_DOUBLE_EQ(cells[0].wait_s, 0.5);
  EXPECT_EQ(cells[1].src, 1);
  EXPECT_EQ(cells[1].messages, 1u);
}

TEST(CommMatrix, PhaseNamesAreStable) {
  EXPECT_EQ(comm_phase_name(CommPhase::kP2p), "p2p");
  EXPECT_EQ(comm_phase_name(CommPhase::kBcast), "bcast");
  EXPECT_EQ(comm_phase_name(CommPhase::kBcastScatter), "bcast.scatter");
  EXPECT_EQ(comm_phase_name(CommPhase::kBcastRing), "bcast.ring");
  EXPECT_EQ(comm_phase_name(CommPhase::kBarrier), "barrier");
  EXPECT_EQ(comm_phase_name(CommPhase::kGather), "gather");
  EXPECT_EQ(comm_phase_name(CommPhase::kAllgather), "allgather");
  EXPECT_EQ(comm_phase_name(CommPhase::kAlltoall), "alltoall");
  EXPECT_EQ(comm_phase_name(CommPhase::kGroupBcast), "group.bcast");
  EXPECT_EQ(comm_phase_name(CommPhase::kBcastDoubling), "bcast.doubling");
}

}  // namespace
}  // namespace hetscale::obs
