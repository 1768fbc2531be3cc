// Critical-path analysis over the span store's virtual-time DAG.
//
// A simulated run ends when its slowest rank finishes; critical_path()
// walks backwards from that instant and attributes every moment of
// [0, elapsed] to what the blocking rank was doing: computing, holding a
// message on the wire (comm), blocked with nothing in flight (wait), or
// charged to an injected fault. The walk follows recv.wait spans across
// lanes via the message that satisfied them — when rank r's finish was
// gated on a message from rank s, the path hops to s at the message's
// departure time and keeps walking there.
//
// The produced segments telescope: each step extends the covered interval
// leftwards with no gaps or overlaps, so the four category totals are
// non-negative and sum to `elapsed` exactly (up to floating-point
// associativity). That invariant is what the `analyze` CLI asserts in CI.
#pragma once

#include <compare>
#include <cstdint>
#include <deque>
#include <vector>

namespace hetscale::obs {

class SpanStore;

/// One delivered message, as the path walker needs it (obs sits below
/// vmpi in the build; vmpi::TraceRecorder records its messages in this
/// shape).
struct PathMessage {
  int source = 0;
  int destination = 0;
  int tag = 0;
  double bytes = 0.0;
  double depart = 0.0;
  double arrive = 0.0;
};

/// Delivered messages in lanes of any grouping; vmpi::TraceRecorder keeps
/// one deque per sending rank, which the walk reads in place.
using MessageLanes = std::vector<std::deque<PathMessage>>;

enum class PathSegmentKind : int { kCompute = 0, kComm, kWait, kFault };

/// Stable lowercase name of a segment kind ("compute", "comm", ...).
const char* path_segment_kind_name(PathSegmentKind kind);

/// One interval of the critical path. Segments are reported in ascending
/// time order and partition [0, elapsed]. `kind` is the PathSegmentKind as
/// int so the defaulted ordering stays trivially total.
struct PathSegment {
  int lane = 0;   ///< rank charged with this interval
  int kind = 0;   ///< PathSegmentKind
  int peer = -1;  ///< sending rank for cross-lane comm hops, -1 otherwise
  double begin = 0.0;
  double end = 0.0;

  double seconds() const { return end - begin; }

  auto operator<=>(const PathSegment&) const = default;
};

struct CriticalPath {
  double elapsed_s = 0.0;
  double compute_s = 0.0;
  double comm_s = 0.0;
  double wait_s = 0.0;
  double fault_s = 0.0;
  std::vector<PathSegment> segments;

  double total_s() const {
    return compute_s + comm_s + wait_s + fault_s;
  }
};

/// Walk the longest dependency chain ending at `elapsed` and attribute it.
/// `messages` must hold the run's delivered messages (may be empty: the
/// walk then attributes blocking locally as wait time). Lanes recorded in
/// order are searched in place; the walk sorts only the out-of-order lanes
/// it visits and the destinations it looks messages up for.
CriticalPath critical_path(const SpanStore& store,
                           const MessageLanes& messages, double elapsed);

}  // namespace hetscale::obs
