// The communication observatory end to end on real machines: CommMatrix
// cells from p2p and collective traffic, Group lane-phase annotation, and
// the critical-path walk over a traced run.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hetscale/obs/critical_path.hpp"
#include "hetscale/support/units.hpp"
#include "hetscale/vmpi/group.hpp"
#include "hetscale/vmpi/machine.hpp"
#include "test_cluster.hpp"

namespace hetscale::vmpi {
namespace {

using des::Task;

net::NetworkParams fast_params() {
  net::NetworkParams p;
  p.remote = {1e-4, 1e7};
  p.per_message_overhead_s = 1e-5;
  return p;
}

const obs::CommCell* find_cell(const std::vector<obs::CommCell>& cells,
                               int src, int dst, obs::CommPhase phase) {
  for (const obs::CommCell& cell : cells) {
    if (cell.src == src && cell.dst == dst &&
        cell.phase == static_cast<int>(phase)) {
      return &cell;
    }
  }
  return nullptr;
}

TEST(CommObservatory, PingPongFillsBothDirections) {
  auto machine = Machine::shared_bus(test_cluster(2), fast_params());
  auto& tracer = machine.enable_tracing();
  machine.run([](Comm& comm) -> Task<void> {
    if (comm.rank() == 0) {
      co_await comm.send(1, 5, 1000.0, {});
      co_await comm.recv(1, 6);
    } else {
      co_await comm.recv(0, 5);
      co_await comm.send(0, 6, 2000.0, {});
    }
  });
  const auto cells = tracer.comm().cells();
  const obs::CommCell* fwd = find_cell(cells, 0, 1, obs::CommPhase::kP2p);
  const obs::CommCell* bwd = find_cell(cells, 1, 0, obs::CommPhase::kP2p);
  ASSERT_NE(fwd, nullptr);
  ASSERT_NE(bwd, nullptr);
  EXPECT_EQ(fwd->messages, 1u);
  EXPECT_DOUBLE_EQ(fwd->bytes, 1000.0);
  EXPECT_GT(fwd->wait_s, 0.0);  // rank 1 blocked before the message landed
  EXPECT_EQ(bwd->messages, 1u);
  EXPECT_DOUBLE_EQ(bwd->bytes, 2000.0);
  EXPECT_EQ(tracer.comm().total_messages(), 2u);
}

TEST(CommObservatory, CollectiveTagsMapToTheirPhases) {
  auto machine = Machine::shared_bus(test_cluster(3), fast_params());
  auto& tracer = machine.enable_tracing();
  machine.run([](Comm& comm) -> Task<void> {
    Payload payload;
    if (comm.rank() == 0) payload = Payload(42.0);
    (void)co_await comm.bcast(0, 64.0, std::move(payload));
    co_await comm.barrier();
    (void)co_await comm.gather(0, 32.0, Payload(1.0 * comm.rank()));
  });
  const auto cells = tracer.comm().cells();
  EXPECT_NE(find_cell(cells, 0, 1, obs::CommPhase::kBcast), nullptr);
  EXPECT_NE(find_cell(cells, 0, 2, obs::CommPhase::kBcast), nullptr);
  EXPECT_NE(find_cell(cells, 1, 0, obs::CommPhase::kBarrier), nullptr);
  EXPECT_NE(find_cell(cells, 1, 0, obs::CommPhase::kGather), nullptr);
  EXPECT_EQ(find_cell(cells, 0, 1, obs::CommPhase::kP2p), nullptr);
}

TEST(CommObservatory, LargeBcastSplitsIntoScatterAndRing) {
  // The ring allgather leg only exists in the paper-era (legacy) family;
  // the default tuning finishes with a doubling allgather instead.
  auto machine = Machine::shared_bus(test_cluster(4), fast_params(),
                                     CollectiveTuning::legacy_flat());
  auto& tracer = machine.enable_tracing();
  machine.run([](Comm& comm) -> Task<void> {
    Payload payload;
    if (comm.rank() == 0) payload = Payload(1.0);
    // Comfortably past the 12288-byte van de Geijn threshold.
    (void)co_await comm.bcast(0, 1e5, std::move(payload));
  });
  double scatter_bytes = 0.0;
  double ring_bytes = 0.0;
  for (const obs::CommCell& cell : tracer.comm().cells()) {
    if (cell.phase == static_cast<int>(obs::CommPhase::kBcastScatter)) {
      scatter_bytes += cell.bytes;
    }
    if (cell.phase == static_cast<int>(obs::CommPhase::kBcastRing)) {
      ring_bytes += cell.bytes;
    }
  }
  EXPECT_GT(scatter_bytes, 0.0);
  EXPECT_GT(ring_bytes, 0.0);
}

TEST(CommObservatory, LargeBcastDefaultSplitsIntoScatterAndDoubling) {
  auto machine = Machine::shared_bus(test_cluster(4), fast_params());
  auto& tracer = machine.enable_tracing();
  machine.run([](Comm& comm) -> Task<void> {
    Payload payload;
    if (comm.rank() == 0) payload = Payload(1.0);
    (void)co_await comm.bcast(0, 1e5, std::move(payload));
  });
  double scatter_bytes = 0.0;
  double doubling_bytes = 0.0;
  double ring_bytes = 0.0;
  for (const obs::CommCell& cell : tracer.comm().cells()) {
    if (cell.phase == static_cast<int>(obs::CommPhase::kBcastScatter)) {
      scatter_bytes += cell.bytes;
    }
    if (cell.phase == static_cast<int>(obs::CommPhase::kBcastDoubling)) {
      doubling_bytes += cell.bytes;
    }
    if (cell.phase == static_cast<int>(obs::CommPhase::kBcastRing)) {
      ring_bytes += cell.bytes;
    }
  }
  EXPECT_GT(scatter_bytes, 0.0);
  EXPECT_GT(doubling_bytes, 0.0);
  EXPECT_DOUBLE_EQ(ring_bytes, 0.0);  // no ring leg in the doubling family
}

TEST(CommObservatory, BarrierRoundsAttributeToBarrierPhaseNotP2p) {
  // Barrier token rounds must land in the `barrier` CommMatrix phase, never
  // as anonymous p2p traffic, in either collective family.
  for (const auto& tuning :
       {CollectiveTuning::legacy_flat(), CollectiveTuning::tree()}) {
    auto machine = Machine::shared_bus(test_cluster(5), fast_params(), tuning);
    auto& tracer = machine.enable_tracing();
    machine.run([](Comm& comm) -> Task<void> { co_await comm.barrier(); });
    std::uint64_t barrier_msgs = 0;
    std::uint64_t p2p_msgs = 0;
    for (const obs::CommCell& cell : tracer.comm().cells()) {
      if (cell.phase == static_cast<int>(obs::CommPhase::kBarrier)) {
        barrier_msgs += cell.messages;
      }
      if (cell.phase == static_cast<int>(obs::CommPhase::kP2p)) {
        p2p_msgs += cell.messages;
      }
    }
    // Both families gather p-1 tokens and release p-1: 2(p-1) at p=5.
    EXPECT_EQ(barrier_msgs, 8u);
    EXPECT_EQ(p2p_msgs, 0u);
  }
}

TEST(CommObservatory, GroupCollectivesGetTheirOwnPhase) {
  auto machine = Machine::shared_bus(test_cluster(4), fast_params());
  auto& tracer = machine.enable_tracing();
  machine.run([](Comm& comm) -> Task<void> {
    if (comm.rank() == 3) co_return;
    Group group(comm, {0, 1, 2});
    Payload payload;
    if (group.rank() == 0) payload = Payload(9.0);
    (void)co_await group.bcast(0, /*tag=*/11, 64.0, std::move(payload));
  });
  const auto cells = tracer.comm().cells();
  EXPECT_NE(find_cell(cells, 0, 1, obs::CommPhase::kGroupBcast), nullptr);
  EXPECT_NE(find_cell(cells, 0, 2, obs::CommPhase::kGroupBcast), nullptr);
  // The caller-chosen tags must never leak through as p2p traffic.
  EXPECT_EQ(find_cell(cells, 0, 1, obs::CommPhase::kP2p), nullptr);
  EXPECT_EQ(find_cell(cells, 1, 0, obs::CommPhase::kP2p), nullptr);
}

TEST(CommObservatory, CriticalPathCoversElapsedOnRealRuns) {
  auto machine = Machine::shared_bus(test_cluster(3), fast_params());
  auto& tracer = machine.enable_tracing();
  const auto result = machine.run([](Comm& comm) -> Task<void> {
    co_await comm.compute(units::mflop(10.0 * (comm.rank() + 1)));
    co_await comm.barrier();
    if (comm.rank() == 0) {
      co_await comm.send(2, 1, 5e4, {});
    } else if (comm.rank() == 2) {
      co_await comm.recv(0, 1);
      co_await comm.compute(units::mflop(5.0));
    }
  });
  const obs::CriticalPath path = obs::critical_path(
      tracer.spans(), tracer.messages(), result.elapsed);
  EXPECT_GE(path.compute_s, 0.0);
  EXPECT_GE(path.comm_s, 0.0);
  EXPECT_GE(path.wait_s, 0.0);
  EXPECT_GE(path.fault_s, 0.0);
  EXPECT_GT(path.compute_s, 0.0);
  EXPECT_NEAR(path.total_s(), result.elapsed,
              1e-9 * (1.0 + result.elapsed));
}

TEST(CommObservatory, ChromeTraceGainsHeatRows) {
  auto machine = Machine::shared_bus(test_cluster(2), fast_params());
  auto& tracer = machine.enable_tracing();
  machine.run([](Comm& comm) -> Task<void> {
    if (comm.rank() == 0) {
      co_await comm.send(1, 4, 512.0, {});
    } else {
      co_await comm.recv(0, 4);
    }
  });
  const std::string json = tracer.chrome_trace_json();
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"comm.bytes\""), std::string::npos);
  EXPECT_NE(json.find("to 1 p2p"), std::string::npos);
}

TEST(CommObservatory, MatrixIsDeterministicAcrossRuns) {
  auto run_once = [] {
    auto machine = Machine::shared_bus(test_cluster(3), fast_params());
    auto& tracer = machine.enable_tracing();
    machine.run([](Comm& comm) -> Task<void> {
      Payload payload;
      if (comm.rank() == 0) payload = Payload(1.0);
      (void)co_await comm.bcast(0, 256.0, std::move(payload));
      co_await comm.barrier();
    });
    return tracer.comm().cells();
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a, b);  // bit-identical cells, including wait seconds
}

}  // namespace
}  // namespace hetscale::vmpi
