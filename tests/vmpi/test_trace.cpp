#include "hetscale/vmpi/trace.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "hetscale/support/error.hpp"
#include "hetscale/support/units.hpp"
#include "hetscale/vmpi/machine.hpp"
#include "test_cluster.hpp"

namespace hetscale::vmpi {
namespace {

using des::Task;

RunResult traced_pingpong(Machine& machine) {
  return machine.run([](Comm& comm) -> Task<void> {
    co_await comm.compute(units::mflop(5.0));
    if (comm.rank() == 0) {
      co_await comm.send(1, 7, 1000.0, {});
      co_await comm.recv(1, 8);
    } else {
      co_await comm.recv(0, 7);
      co_await comm.send(0, 8, 1000.0, {});
    }
  });
}

TEST(Trace, RecordsComputeAndCommIntervals) {
  auto machine = Machine::switched(test_cluster(2));
  auto& tracer = machine.enable_tracing();
  traced_pingpong(machine);
  // 2 computes + 2 sends + 2 recvs.
  EXPECT_EQ(tracer.intervals().size(), 6u);
  int computes = 0;
  int sends = 0;
  int recvs = 0;
  for (const auto& interval : tracer.intervals()) {
    EXPECT_GE(interval.end, interval.begin);
    switch (interval.kind) {
      case TraceInterval::Kind::kCompute: ++computes; break;
      case TraceInterval::Kind::kSend: ++sends; break;
      case TraceInterval::Kind::kRecv: ++recvs; break;
    }
  }
  EXPECT_EQ(computes, 2);
  EXPECT_EQ(sends, 2);
  EXPECT_EQ(recvs, 2);
}

TEST(Trace, IntervalsAgreeWithRankStats) {
  auto machine = Machine::switched(test_cluster(2));
  auto& tracer = machine.enable_tracing();
  const auto result = traced_pingpong(machine);
  double traced_compute[2] = {0, 0};
  double traced_comm[2] = {0, 0};
  for (const auto& interval : tracer.intervals()) {
    const double duration = interval.end - interval.begin;
    if (interval.kind == TraceInterval::Kind::kCompute) {
      traced_compute[interval.rank] += duration;
    } else {
      traced_comm[interval.rank] += duration;
    }
  }
  for (int r = 0; r < 2; ++r) {
    EXPECT_NEAR(traced_compute[r], result.ranks[r].compute_s, 1e-12);
    EXPECT_NEAR(traced_comm[r], result.ranks[r].comm_s, 1e-12);
  }
}

TEST(Trace, MessagesCarryEndpointsAndTimes) {
  auto machine = Machine::switched(test_cluster(2));
  auto& tracer = machine.enable_tracing();
  traced_pingpong(machine);
  const auto first = tracer.messages().at(0).front();
  EXPECT_EQ(first.source, 0);
  EXPECT_EQ(first.destination, 1);
  EXPECT_EQ(first.tag, 7);
  EXPECT_DOUBLE_EQ(first.bytes, 1000.0);
  EXPECT_GT(first.arrive, first.depart);
}

TEST(Trace, ChromeJsonHasEventPerIntervalAndFlowPairPerMessage) {
  auto machine = Machine::switched(test_cluster(2));
  auto& tracer = machine.enable_tracing();
  traced_pingpong(machine);
  const std::string json = tracer.chrome_trace_json();
  EXPECT_EQ(json.front(), '[');
  auto count = [&](const std::string& needle) {
    std::size_t hits = 0;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + 1)) {
      ++hits;
    }
    return hits;
  };
  EXPECT_EQ(count(R"("ph":"X")"), 6u);
  EXPECT_EQ(count(R"("ph":"s")"), 2u);
  EXPECT_EQ(count(R"("ph":"f")"), 2u);
  EXPECT_EQ(count(R"("name":"compute")"), 2u);
}

TEST(Trace, UtilizationTableFractionsAreSane) {
  auto machine = Machine::switched(test_cluster(2));
  auto& tracer = machine.enable_tracing();
  const auto result = traced_pingpong(machine);
  const std::string table = tracer.utilization_table(result.elapsed);
  EXPECT_NE(table.find("rank"), std::string::npos);
  EXPECT_NE(table.find("compute %"), std::string::npos);
}

TEST(Trace, DisabledByDefault) {
  auto machine = Machine::switched(test_cluster(2));
  EXPECT_EQ(machine.tracer(), nullptr);
  traced_pingpong(machine);
}

TEST(Trace, CannotEnableAfterRun) {
  auto machine = Machine::switched(test_cluster(2));
  traced_pingpong(machine);
  EXPECT_THROW(machine.enable_tracing(), PreconditionError);
}

TEST(Trace, TracingDoesNotPerturbTiming) {
  auto plain = Machine::switched(test_cluster(2));
  const auto a = traced_pingpong(plain);
  auto traced = Machine::switched(test_cluster(2));
  traced.enable_tracing();
  const auto b = traced_pingpong(traced);
  EXPECT_EQ(a.elapsed, b.elapsed);
}

TEST(Trace, EmptyTraceIsValidJson) {
  TraceRecorder recorder;
  EXPECT_EQ(recorder.chrome_trace_json(), "[]\n");
}

TEST(Trace, ZeroLengthIntervalsStayValid) {
  TraceRecorder recorder;
  recorder.record_interval(
      {0, TraceInterval::Kind::kCompute, 1.0, 1.0, -1, 0, 0.0});
  EXPECT_EQ(recorder.intervals().size(), 1u);
  const std::string json = recorder.chrome_trace_json();
  EXPECT_NE(json.find(R"("dur":0)"), std::string::npos);
  EXPECT_EQ(json.substr(json.size() - 2), "]\n");
}

TEST(Trace, ChromeJsonEscapesSpanNames) {
  TraceRecorder recorder;
  auto& spans = recorder.spans();
  spans.record(0, spans.intern("weird\"name\\here"), 0.0, 1.0);
  const std::string json = recorder.chrome_trace_json();
  EXPECT_NE(json.find(R"(weird\"name\\here)"), std::string::npos);
  // The raw quote must never appear unescaped inside the name field.
  EXPECT_EQ(json.find("weird\"name"), std::string::npos);
}

TEST(Trace, BarrierSpansNestWaitsBeneathThem) {
  auto machine = Machine::switched(test_cluster(2));
  auto& tracer = machine.enable_tracing();
  machine.run([](Comm& comm) -> Task<void> {
    co_await comm.compute(units::mflop(1.0));
    co_await comm.barrier();
  });
  const auto& spans = tracer.spans();
  EXPECT_EQ(spans.open_count(), 0u);  // every barrier span closed
  int barriers = 0;
  int nested = 0;
  for (int lane = 0; lane < spans.lanes(); ++lane) {
    for (const auto& span : spans.lane(lane)) {
      if (span.name_id == tracer.barrier_name_id()) {
        ++barriers;
        EXPECT_GE(span.end, span.begin);
        EXPECT_EQ(span.depth, 0);
      } else if (span.depth > 0) {
        ++nested;  // a send/recv wait inside the barrier
      }
    }
  }
  EXPECT_EQ(barriers, 2);  // one per rank
  EXPECT_GT(nested, 0);
}

TEST(Trace, InvalidRecordsRejected) {
  TraceRecorder recorder;
  EXPECT_THROW(recorder.record_interval(
                   {0, TraceInterval::Kind::kCompute, 2.0, 1.0, -1, 0, 0.0}),
               PreconditionError);
  EXPECT_THROW(recorder.record_message({0, 1, 0, 8.0, 2.0, 1.0}),
               PreconditionError);
  EXPECT_THROW(recorder.utilization_table(0.0), PreconditionError);
}

}  // namespace
}  // namespace hetscale::vmpi
