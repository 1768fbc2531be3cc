#include "hetscale/vmpi/trace.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>

#include "hetscale/obs/format.hpp"
#include "hetscale/support/error.hpp"
#include "hetscale/support/table.hpp"

namespace hetscale::vmpi {

namespace {

double to_us(des::SimTime t) { return t * 1e6; }

}  // namespace

TraceRecorder::TraceRecorder()
    : compute_id_(spans_.intern("compute")),
      send_id_(spans_.intern("send.wait")),
      recv_id_(spans_.intern("recv.wait")),
      barrier_id_(spans_.intern("barrier")) {}

void TraceRecorder::record_interval(TraceInterval interval) {
  HETSCALE_REQUIRE(interval.end >= interval.begin,
                   "interval must not end before it begins");
  int name_id = compute_id_;
  switch (interval.kind) {
    case TraceInterval::Kind::kCompute: name_id = compute_id_; break;
    case TraceInterval::Kind::kSend: name_id = send_id_; break;
    case TraceInterval::Kind::kRecv: name_id = recv_id_; break;
  }
  spans_.record(interval.rank, name_id, interval.begin, interval.end,
                interval.peer, interval.tag, interval.bytes);
}

void TraceRecorder::presize_lanes(int lanes) {
  spans_.presize_lanes(lanes);
  if (static_cast<std::size_t>(lanes) > lanes_.size()) {
    lanes_.resize(static_cast<std::size_t>(lanes));
    messages_.resize(static_cast<std::size_t>(lanes));
  }
}

std::size_t TraceRecorder::lane_index(int lane) const {
  HETSCALE_REQUIRE(lane >= 0 && static_cast<std::size_t>(lane) < lanes_.size(),
                   "trace lane out of range (presize_lanes first)");
  return static_cast<std::size_t>(lane);
}

TraceRecorder::Lane& TraceRecorder::lane(int lane) {
  return lanes_[lane_index(lane)];
}

void TraceRecorder::record_message(obs::PathMessage message) {
  HETSCALE_REQUIRE(message.arrive >= message.depart,
                   "message must not arrive before departing");
  messages_[lane_index(message.source)].push_back(message);
}

void TraceRecorder::set_lane_phase(int lane, obs::CommPhase phase) {
  this->lane(lane).phase = static_cast<int>(phase);
}

void TraceRecorder::clear_lane_phase(int lane) { this->lane(lane).phase = -1; }

void TraceRecorder::record_send(int src, int dst, obs::CommPhase phase,
                                double bytes) {
  Lane& owner = lane(src);
  if (owner.phase >= 0) phase = static_cast<obs::CommPhase>(owner.phase);
  owner.comm.record_send(src, dst, phase, bytes);
}

void TraceRecorder::record_wait(int src, int dst, obs::CommPhase phase,
                                double wait_s) {
  Lane& owner = lane(dst);
  if (owner.phase >= 0) phase = static_cast<obs::CommPhase>(owner.phase);
  owner.comm.record_wait(src, dst, phase, wait_s);
}

obs::CommMatrix TraceRecorder::comm() const {
  obs::CommMatrix all;
  for (const Lane& lane : lanes_) all += lane.comm;
  return all;
}

std::vector<TraceInterval> TraceRecorder::intervals() const {
  std::vector<TraceInterval> out;
  out.reserve(spans_.size());
  for (int lane = 0; lane < spans_.lanes(); ++lane) {
    for (const obs::Span& span : spans_.lane(lane)) {
      if (span.end < span.begin) continue;  // left open (deadlocked run)
      TraceInterval::Kind kind;
      if (span.name_id == compute_id_) {
        kind = TraceInterval::Kind::kCompute;
      } else if (span.name_id == send_id_) {
        kind = TraceInterval::Kind::kSend;
      } else if (span.name_id == recv_id_) {
        kind = TraceInterval::Kind::kRecv;
      } else {
        continue;  // structural span (barrier) or fault charge
      }
      out.push_back(TraceInterval{lane, kind, span.begin, span.end, span.peer,
                                  span.tag, span.bytes});
    }
  }
  return out;
}

std::string TraceRecorder::chrome_trace_json() const {
  std::ostringstream os;
  os << std::setprecision(12);
  os << "[";
  bool first = true;
  auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };
  for (int lane = 0; lane < spans_.lanes(); ++lane) {
    for (const obs::Span& span : spans_.lane(lane)) {
      if (span.end < span.begin) continue;  // left open (deadlocked run)
      sep();
      os << R"({"name":")" << obs::json_escape(spans_.name(span.name_id))
         << R"(","ph":"X","pid":0,"tid":)" << lane
         << R"(,"ts":)" << to_us(span.begin)
         << R"(,"dur":)" << to_us(span.end - span.begin);
      if (span.peer >= 0) {
        os << R"(,"args":{"peer":)" << span.peer << R"(,"tag":)" << span.tag
           << R"(,"bytes":)" << span.bytes << "}";
      }
      os << "}";
    }
  }
  // Flow arrows: an "s" event at the sender's depart, an "f" event at the
  // receiver's arrival, joined by an id numbering the messages sender lane
  // by sender lane.
  std::size_t id = 0;
  for (const auto& sent : messages_) {
    for (const obs::PathMessage& m : sent) {
      sep();
      os << R"({"name":"msg","ph":"s","id":)" << id
         << R"(,"pid":0,"tid":)" << m.source << R"(,"ts":)"
         << to_us(m.depart) << "}";
      sep();
      os << R"({"name":"msg","ph":"f","bp":"e","id":)" << id
         << R"(,"pid":0,"tid":)" << m.destination << R"(,"ts":)"
         << to_us(m.arrive) << "}";
      ++id;
    }
  }
  // CommMatrix heat rows: one counter track per sending rank, one series
  // per (dst, phase) cell, in canonical cell order. Only emitted when the
  // matrix has cells, so a bare recorder still renders "[]".
  if (const obs::CommMatrix matrix = comm(); !matrix.empty()) {
    for (const obs::CommCell& cell : matrix.cells()) {
      sep();
      os << R"({"name":"comm.bytes","ph":"C","pid":0,"tid":)" << cell.src
         << R"(,"ts":0,"args":{"to )" << cell.dst << ' '
         << obs::comm_phase_name(static_cast<obs::CommPhase>(cell.phase))
         << R"(":)" << cell.bytes << "}}";
    }
  }
  os << (first ? "]\n" : "\n]\n");
  return os.str();
}

std::string TraceRecorder::utilization_table(des::SimTime horizon) const {
  HETSCALE_REQUIRE(horizon > 0.0, "horizon must be positive");
  struct Bucket {
    double compute = 0.0;
    double comm = 0.0;
  };
  std::map<int, Bucket> per_rank;
  for (const auto& interval : intervals()) {
    auto& bucket = per_rank[interval.rank];
    const double duration = interval.end - interval.begin;
    if (interval.kind == TraceInterval::Kind::kCompute) {
      bucket.compute += duration;
    } else {
      bucket.comm += duration;
    }
  }
  Table table("Per-rank virtual-time utilization");
  table.set_header({"rank", "compute %", "comm %", "idle %"});
  for (const auto& [rank, bucket] : per_rank) {
    const double compute = 100.0 * bucket.compute / horizon;
    const double comm = 100.0 * bucket.comm / horizon;
    table.add_row({std::to_string(rank), Table::fixed(compute, 1),
                   Table::fixed(comm, 1),
                   Table::fixed(std::max(0.0, 100.0 - compute - comm), 1)});
  }
  return table.str();
}

}  // namespace hetscale::vmpi
