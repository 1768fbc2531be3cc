// Execution tracing — where did the virtual time go?
//
// When enabled on a Machine, every compute interval, blocking send/recv
// interval, barrier, and message is recorded into an obs::SpanStore (the
// instrumentation layer's span container; fault hooks add `checkpoint` and
// `fault.rework` spans to the same store). Consumers:
//   * chrome_trace_json(): the Chrome trace-event format (load in
//     chrome://tracing or Perfetto) — one lane per rank, with message flow
//     arrows from sender to receiver;
//   * utilization_table(): a per-rank compute/communication/idle breakdown;
//   * obs::compute_time_budget(): the measured t0/To decomposition the
//     profiler reports.
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "hetscale/des/scheduler.hpp"
#include "hetscale/obs/comm_matrix.hpp"
#include "hetscale/obs/critical_path.hpp"
#include "hetscale/obs/span.hpp"

namespace hetscale::vmpi {

struct TraceInterval {
  enum class Kind { kCompute, kSend, kRecv };
  int rank = 0;
  Kind kind = Kind::kCompute;
  des::SimTime begin = 0.0;
  des::SimTime end = 0.0;
  int peer = -1;       ///< other endpoint for kSend/kRecv
  int tag = 0;
  double bytes = 0.0;  ///< modeled size for kSend/kRecv
};

struct TraceMessage {
  int source = 0;
  int destination = 0;
  int tag = 0;
  double bytes = 0.0;
  des::SimTime depart = 0.0;
  des::SimTime arrive = 0.0;
};

class TraceRecorder {
 public:
  TraceRecorder();

  /// Create lanes [0, lanes) in every per-lane store. Each lane is written
  /// only by its own rank, so ranks simulated on different threads record
  /// without sharing a sink. Messages and lane phases need their lane.
  void presize_lanes(int lanes);

  void record_interval(TraceInterval interval);

  /// Record a delivered message under its sender's lane.
  void record_message(TraceMessage message);

  /// The point-to-point and compute intervals, materialized from the span
  /// store lane by lane (structural spans — barriers, fault charges — are
  /// not leaf intervals and are excluded; their constituent sends/recvs are
  /// listed).
  std::vector<TraceInterval> intervals() const;

  /// Messages recorded so far, over all lanes.
  std::size_t message_count() const;

  /// The underlying span store (all spans, including barrier/fault ones).
  obs::SpanStore& spans() { return spans_; }
  const obs::SpanStore& spans() const { return spans_; }

  /// Interned name id of the `barrier` span, for explicit open()/close()
  /// from coroutine code.
  int barrier_name_id() const { return barrier_id_; }

  /// Charge one message src -> dst to the communication matrix under the
  /// sender's lane, and `wait_s` of receiver blocking to the src -> dst
  /// cell under the receiver's lane; Comm's send/recv hooks call these
  /// whenever tracing is on. `phase` is the tag-derived phase, overridden
  /// by the recording lane's group phase when one is set.
  void record_send(int src, int dst, obs::CommPhase phase, double bytes);
  void record_wait(int src, int dst, obs::CommPhase phase, double wait_s);

  /// The per-rank x per-rank communication matrix (obs/comm_matrix.hpp):
  /// the lanes' matrices summed. Each cell field has one writing lane, so
  /// the sum is exact.
  obs::CommMatrix comm() const;

  /// Group collectives run over plain tagged point-to-point sends, so the
  /// world tags cannot name them; a group marks its own lane for the span
  /// of the collective and every message the lane sends or receives is
  /// charged to that phase instead of the tag-derived one. Lanes are
  /// independent, so interleaved coroutines cannot clobber each other.
  void set_lane_phase(int lane, obs::CommPhase phase);
  void clear_lane_phase(int lane);

  /// The messages converted to the critical-path walker's shape, sender
  /// lane by sender lane, each in its send order.
  std::vector<obs::PathMessage> path_messages() const;

  /// Chrome trace-event JSON ("X" duration events per rank lane, "s"/"f"
  /// flow pairs per message, plus one "C" counter row per CommMatrix cell
  /// when the matrix is non-empty), listed lane by lane. Times in
  /// microseconds of virtual time. All span names are JSON-escaped; an
  /// empty trace renders as "[]".
  std::string chrome_trace_json() const;

  /// Per-rank utilization over [0, horizon]: compute, blocked-communicating
  /// and idle fractions, rendered as an aligned text table.
  std::string utilization_table(des::SimTime horizon) const;

 private:
  struct Lane {
    std::deque<TraceMessage> messages;  ///< sent by this lane, in order
    obs::CommMatrix comm;  ///< its sends, and its waits as receiver
    int phase = -1;  ///< CommPhase as int; -1 outside group collectives
  };

  Lane& lane(int lane);

  obs::SpanStore spans_;
  std::vector<Lane> lanes_;
  int compute_id_;
  int send_id_;
  int recv_id_;
  int barrier_id_;
};

}  // namespace hetscale::vmpi
