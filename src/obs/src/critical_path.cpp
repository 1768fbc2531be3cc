#include "hetscale/obs/critical_path.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <tuple>

#include "hetscale/obs/span.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::obs {

const char* path_segment_kind_name(PathSegmentKind kind) {
  switch (kind) {
    case PathSegmentKind::kCompute: return "compute";
    case PathSegmentKind::kComm: return "comm";
    case PathSegmentKind::kWait: return "wait";
    case PathSegmentKind::kFault: return "fault";
  }
  throw ModelError("unknown path segment kind");
}

namespace {

/// How the walker treats a span name. Structural spans (barrier, custom
/// kOther names) cover their constituent leaf spans and are skipped.
enum class SpanClass : std::uint8_t {
  kCompute,
  kFault,
  kRecvWait,
  kCommLocal,
  kSkip,
  kUnknown,  ///< not classified yet
};

SpanClass classify(const SpanStore& store, int name_id) {
  switch (store.category(name_id)) {
    case SpanCategory::kCompute: return SpanClass::kCompute;
    case SpanCategory::kFault: return SpanClass::kFault;
    case SpanCategory::kComm: {
      const std::string& name = store.name(name_id);
      if (name == "recv.wait") return SpanClass::kRecvWait;
      if (name == "barrier") return SpanClass::kSkip;
      return SpanClass::kCommLocal;  // send.wait and friends
    }
    case SpanCategory::kOther: return SpanClass::kSkip;
  }
  throw ModelError("unknown span category");
}

/// Span classes indexed by name id, each classified on first sight.
class ClassTable {
 public:
  explicit ClassTable(const SpanStore& store) : store_(store) {}

  SpanClass operator()(int name_id) {
    const auto id = static_cast<std::size_t>(name_id);
    if (id >= classes_.size()) classes_.resize(id + 1, SpanClass::kUnknown);
    if (classes_[id] == SpanClass::kUnknown) {
      classes_[id] = classify(store_, name_id);
    }
    return classes_[id];
  }

 private:

  const SpanStore& store_;
  std::vector<SpanClass> classes_;
};

bool by_begin_end(const Span* a, const Span* b) {
  return std::tie(a->begin, a->end) < std::tie(b->begin, b->end);
}

/// Answers the walk's one question of a lane — the last of its closed leaf
/// spans, in (begin, end) order, that begins before the cursor — and finds
/// where the walk starts, in one pass over the store. A lane whose spans
/// are in begin order, with its leaf spans in (begin, end) order, is
/// searched in place; any other lane is indexed and sorted on the walk's
/// first visit to it.
class LaneIndex {
 public:
  LaneIndex(const SpanStore& store, ClassTable& classes)
      : store_(store),
        classes_(classes),
        lanes_(static_cast<std::size_t>(store.lanes())) {
    double latest_end = -1.0;
    for (int l = 0; l < store.lanes(); ++l) {
      bool in_order = true;
      double last_begin = -std::numeric_limits<double>::infinity();
      const Span* last_leaf = nullptr;
      for (const Span& span : store.lane(l)) {
        in_order = in_order && span.begin >= last_begin;
        last_begin = span.begin;
        if (!leaf(span)) continue;
        if (in_order && last_leaf != nullptr) {
          in_order = follows(*last_leaf, span);
        }
        last_leaf = &span;
        // The run ends when its last leaf span does; the walk starts on the
        // first lane holding such a span.
        if (span.end > latest_end) {
          latest_end = span.end;
          start_ = l;
        }
      }
      lanes_[static_cast<std::size_t>(l)].in_order = in_order;
    }
  }

  /// The lane holding the latest-ending leaf span, or -1 if none.
  int start() const { return start_; }

  /// The last leaf span on `lane` beginning before `cursor`, or null.
  const Span* last_before(int lane, double cursor) {
    if (lane < 0 || lane >= store_.lanes()) return nullptr;
    Lane& index = lanes_[static_cast<std::size_t>(lane)];
    if (index.in_order) {
      const std::deque<Span>& spans = store_.lane(lane);
      auto pos = std::partition_point(
          spans.begin(), spans.end(),
          [cursor](const Span& s) { return s.begin < cursor; });
      while (pos != spans.begin()) {
        --pos;
        if (leaf(*pos)) return &*pos;
      }
      return nullptr;
    }
    if (!index.sorted) {
      for (const Span& span : store_.lane(lane)) {
        if (leaf(span)) index.leaves.push_back(&span);
      }
      // Sorted exactly as an index of every lane would be (the same
      // std::sort over the same sequence), so equal keys end up in the
      // same order.
      std::sort(index.leaves.begin(), index.leaves.end(), by_begin_end);
      index.sorted = true;
    }
    const auto pos = std::lower_bound(
        index.leaves.begin(), index.leaves.end(), cursor,
        [](const Span* s, double c) { return s->begin < c; });
    return pos == index.leaves.begin() ? nullptr : *(pos - 1);
  }

 private:
  struct Lane {
    bool in_order = true;
    bool sorted = false;
    std::vector<const Span*> leaves;  ///< sorted leaf spans, if !in_order
  };

  /// Closed and not structural: the spans the walk charges.
  bool leaf(const Span& span) {
    return span.end >= span.begin &&  // else left open (deadlocked run)
           classes_(span.name_id) != SpanClass::kSkip;
  }

  /// Whether leaf `b`, recorded after leaf `a`, may stay after it unsorted.
  /// Sorting by (begin, end) only permutes spans with equal keys, and the
  /// walk reads only the last of such a run, so a tie is harmless when the
  /// walk cannot tell the two apart: both zero-width (either leaves the
  /// same wait gap and moves the cursor to the same begin), or the same
  /// class, peer and tag.
  bool follows(const Span& a, const Span& b) {
    if (std::tie(a.begin, a.end) < std::tie(b.begin, b.end)) return true;
    if (a.begin != b.begin || a.end != b.end) return false;
    if (a.begin == a.end) return true;
    return classes_(a.name_id) == classes_(b.name_id) && a.peer == b.peer &&
           a.tag == b.tag;
  }

  const SpanStore& store_;
  ClassTable& classes_;
  std::vector<Lane> lanes_;
  int start_ = -1;
};

/// What the walk needs of a delivered message.
struct Delivery {
  int source;
  int tag;
  double arrive;
  double depart;
};

/// Delivered messages bucketed by destination lane with one counting sort;
/// a bucket is sorted by (source, tag, arrive, depart) on its first lookup
/// — how a recv.wait span finds the message that satisfied it. Messages to
/// a destination outside the store's lanes can never be looked up.
class Inbox {
 public:
  Inbox(const MessageLanes& messages, int lanes)
      : start_(static_cast<std::size_t>(lanes) + 1, 0),
        sorted_(static_cast<std::size_t>(lanes), false) {
    const auto kept = [lanes](const PathMessage& m) {
      return m.destination >= 0 && m.destination < lanes;
    };
    for (const auto& lane : messages) {
      for (const PathMessage& m : lane) {
        if (kept(m)) ++start_[static_cast<std::size_t>(m.destination) + 1];
      }
    }
    for (std::size_t d = 1; d < start_.size(); ++d) {
      start_[d] += start_[d - 1];
    }
    deliveries_.resize(start_.back());
    std::vector<std::size_t> fill(start_.begin(), start_.end() - 1);
    for (const auto& lane : messages) {
      for (const PathMessage& m : lane) {
        if (!kept(m)) continue;
        deliveries_[fill[static_cast<std::size_t>(m.destination)]++] =
            Delivery{m.source, m.tag, m.arrive, m.depart};
      }
    }
  }

  /// The messages `source` sent to `destination` under `tag`, sorted by
  /// (arrive, depart).
  std::span<const Delivery> find(int destination, int source, int tag) {
    if (destination < 0 ||
        static_cast<std::size_t>(destination) >= sorted_.size()) {
      return {};
    }
    const auto d = static_cast<std::size_t>(destination);
    const auto first =
        deliveries_.begin() + static_cast<std::ptrdiff_t>(start_[d]);
    const auto last =
        deliveries_.begin() + static_cast<std::ptrdiff_t>(start_[d + 1]);
    if (!sorted_[d]) {
      std::sort(first, last, [](const Delivery& a, const Delivery& b) {
        return std::tie(a.source, a.tag, a.arrive, a.depart) <
               std::tie(b.source, b.tag, b.arrive, b.depart);
      });
      sorted_[d] = true;
    }
    const auto key = std::tie(source, tag);
    const auto lo = std::partition_point(first, last, [&](const Delivery& m) {
      return std::tie(m.source, m.tag) < key;
    });
    const auto hi = std::partition_point(lo, last, [&](const Delivery& m) {
      return std::tie(m.source, m.tag) == key;
    });
    return {lo, hi};
  }

 private:
  std::vector<std::size_t> start_;  ///< bucket d is [start_[d], start_[d+1])
  std::vector<Delivery> deliveries_;
  std::vector<bool> sorted_;
};

}  // namespace

CriticalPath critical_path(const SpanStore& store,
                           const MessageLanes& messages, double elapsed) {
  HETSCALE_REQUIRE(elapsed >= 0.0, "elapsed must be non-negative");
  CriticalPath path;
  path.elapsed_s = elapsed;
  if (elapsed <= 0.0) return path;

  ClassTable classes(store);
  LaneIndex lanes(store, classes);
  Inbox inbox(messages, store.lanes());
  int lane = lanes.start();  // walk backwards from the run's last leaf end

  std::vector<PathSegment> reversed;
  auto emit = [&](int l, PathSegmentKind kind, int peer, double begin,
                  double end) {
    if (end <= begin) return;
    switch (kind) {
      case PathSegmentKind::kCompute: path.compute_s += end - begin; break;
      case PathSegmentKind::kComm: path.comm_s += end - begin; break;
      case PathSegmentKind::kWait: path.wait_s += end - begin; break;
      case PathSegmentKind::kFault: path.fault_s += end - begin; break;
    }
    reversed.push_back(
        PathSegment{l, static_cast<int>(kind), peer, begin, end});
  };

  double cursor = elapsed;
  // Every step strictly decreases the cursor past a span begin or a message
  // departure, so this bound is generous; it is a backstop, not a budget.
  std::size_t max_steps = store.size() + 64;
  for (const auto& lane : messages) max_steps += lane.size();
  std::size_t steps = 0;
  while (cursor > 0.0 && lane >= 0) {
    if (++steps > max_steps) break;
    const Span* span = lanes.last_before(lane, cursor);
    if (span == nullptr) break;  // nothing earlier on this lane
    if (span->end < cursor) {
      // Idle gap between the span and the cursor: the lane was blocked with
      // no recorded activity.
      emit(lane, PathSegmentKind::kWait, -1, span->end, cursor);
      cursor = span->end;
      if (cursor <= 0.0) break;
    }
    switch (classes(span->name_id)) {
      case SpanClass::kCompute:
        emit(lane, PathSegmentKind::kCompute, -1, span->begin, cursor);
        cursor = span->begin;
        break;
      case SpanClass::kFault:
        emit(lane, PathSegmentKind::kFault, -1, span->begin, cursor);
        cursor = span->begin;
        break;
      case SpanClass::kCommLocal:
        emit(lane, PathSegmentKind::kComm, span->peer, span->begin, cursor);
        cursor = span->begin;
        break;
      case SpanClass::kRecvWait: {
        // Find the message that satisfied this receive: same endpoints and
        // tag, arriving inside the blocked interval. The receive resumed at
        // the arrival instant, so when the wire gated it, arrive == end.
        const Delivery* found = nullptr;
        const auto msgs = inbox.find(lane, span->peer, span->tag);
        auto at = std::upper_bound(
            msgs.begin(), msgs.end(), span->end,
            [](double c, const Delivery& m) { return c < m.arrive; });
        while (at != msgs.begin()) {
          --at;
          if (at->arrive <= span->begin) break;
          if (at->depart < cursor) {
            found = &*at;
            break;
          }
        }
        if (found != nullptr) {
          // The wire held the path from the departure to the cursor; the
          // walk continues on the sending rank at the departure instant.
          emit(lane, PathSegmentKind::kComm, found->source,
               std::max(found->depart, 0.0), cursor);
          cursor = found->depart;
          lane = found->source;
        } else {
          // No in-flight message covered the blocking (e.g. the payload
          // arrived before the receive was even posted): pure wait.
          emit(lane, PathSegmentKind::kWait, span->peer, span->begin,
               cursor);
          cursor = span->begin;
        }
        break;
      }
      case SpanClass::kSkip:
      case SpanClass::kUnknown:
        // Unreachable: only classified leaf spans enter the lane index.
        cursor = span->begin;
        break;
    }
  }
  // Whatever is left of [0, cursor] precedes all recorded activity on the
  // path (start-up skew, or a run with no spans at all).
  emit(lane, PathSegmentKind::kWait, -1, 0.0, cursor);

  path.segments.reserve(reversed.size());
  for (auto it = reversed.rbegin(); it != reversed.rend(); ++it) {
    // Merge abutting segments of one kind on one lane (the walk fragments
    // them at message departures and span joins).
    if (!path.segments.empty()) {
      PathSegment& last = path.segments.back();
      if (last.lane == it->lane && last.kind == it->kind &&
          last.peer == it->peer && last.end == it->begin) {
        last.end = it->end;
        continue;
      }
    }
    path.segments.push_back(*it);
  }
  return path;
}

}  // namespace hetscale::obs
