// SpanStore — named, per-lane intervals of virtual time, with nesting.
//
// The span taxonomy the runtime emits (vmpi/fault record into a Machine's
// store): `compute`, `send.wait`, `recv.wait`, `barrier`, `checkpoint`,
// `fault.rework`. Names are interned; each carries a category (compute /
// comm / fault / other) that the time-budget sweep (obs/budget.hpp) and
// the exporters classify by. Lanes are ranks; depth records nesting (a
// send.wait inside a barrier has depth 1).
//
// Every span and open-span depth belongs to its lane and is written only by
// that lane's producer, so ranks simulated on different threads record
// without sharing a sink once presize_lanes() has created their lanes and
// the names are interned. Readers walk lanes in index order.
//
// Times are plain doubles: the obs layer sits below the DES in the build,
// so it cannot name des::SimTime — but a SimTime *is* a double, and every
// producer records scheduler time directly.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <string>
#include <vector>

namespace hetscale::obs {

enum class SpanCategory { kCompute, kComm, kFault, kOther };

/// Returned by open() when tracing is off; close() ignores it.
inline constexpr std::size_t kNoSpan = static_cast<std::size_t>(-1);

/// One interval on a lane (the lane is where the store keeps it).
struct Span {
  int name_id = 0;
  int depth = 0;  ///< how many spans were open on the lane at begin
  int peer = -1;  ///< other endpoint for comm spans, -1 otherwise
  int tag = 0;
  double begin = 0.0;
  double end = 0.0;
  double bytes = 0.0;  ///< modeled payload size for comm spans
};

class SpanStore {
 public:
  /// Intern `name`, inferring its category from the taxonomy above
  /// ("compute" -> compute; "send.wait"/"recv.wait"/"barrier" -> comm;
  /// "checkpoint"/"fault.*" -> fault; anything else -> other).
  int intern(const std::string& name);
  int intern(const std::string& name, SpanCategory category);

  const std::string& name(int id) const;
  SpanCategory category(int id) const;

  /// Create lanes [0, lanes) now. Recording into a lane past the last one
  /// grows the store, which only a single-threaded producer may do.
  void presize_lanes(int lanes);

  /// Record a completed (leaf) span at the lane's current nesting depth.
  void record(int lane, int name_id, double begin, double end, int peer = -1,
              int tag = 0, double bytes = 0.0);

  /// Open a nesting span; record()s on the lane until the matching close()
  /// get depth + 1. Returns a handle for close(); kNoSpan is accepted and
  /// ignored there, so producers can thread "tracing off" through.
  std::size_t open(int lane, int name_id, double begin);
  void close(std::size_t handle, double end);

  /// Number of lanes (one past the highest lane recorded or presized).
  int lanes() const { return static_cast<int>(lanes_.size()); }

  /// Lane `lane`'s spans (lane < lanes()) in recording order. Spans opened
  /// but never closed keep end < begin and are skipped by consumers.
  const std::deque<Span>& lane(int lane) const;

  /// Total spans over all lanes.
  std::size_t size() const;
  bool empty() const { return size() == 0; }

  /// Spans currently open (for leak checks in tests).
  std::size_t open_count() const;

 private:
  struct Lane {
    std::deque<Span> spans;
    int open = 0;  ///< currently open span count
  };

  Lane& lane_for_write(int lane);

  std::map<std::string, int> ids_;
  std::vector<std::string> names_;
  std::vector<SpanCategory> categories_;
  std::vector<Lane> lanes_;
};

}  // namespace hetscale::obs
