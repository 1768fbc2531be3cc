#include "reference_profile.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "hetscale/obs/span.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::obs::reference {

namespace {

struct Edge {
  double time;
  int lane;
  SpanCategory category;
  int delta;  ///< +1 open, -1 close
};

/// Per-lane open-span counts; the lane's effective state is the
/// highest-priority non-empty one (fault > compute > comm > idle).
struct LaneState {
  int fault = 0;
  int compute = 0;
  int comm = 0;

  int& slot(SpanCategory category) {
    switch (category) {
      case SpanCategory::kFault: return fault;
      case SpanCategory::kCompute: return compute;
      default: return comm;
    }
  }

  enum class Effective { kIdle, kComm, kCompute, kFault };
  Effective effective() const {
    if (fault > 0) return Effective::kFault;
    if (compute > 0) return Effective::kCompute;
    if (comm > 0) return Effective::kComm;
    return Effective::kIdle;
  }
};

}  // namespace

TimeBudget compute_time_budget(const SpanStore& store, double elapsed) {
  HETSCALE_REQUIRE(elapsed >= 0.0, "elapsed time must be non-negative");
  TimeBudget budget;
  budget.elapsed_s = elapsed;

  std::vector<Edge> edges;
  edges.reserve(store.size() * 2);
  for (int lane = 0; lane < store.lanes(); ++lane) {
    for (const Span& span : store.lane(lane)) {
      if (span.end < span.begin) continue;  // never closed
      const SpanCategory category = store.category(span.name_id);
      if (category == SpanCategory::kOther) continue;
      const double begin = std::max(span.begin, 0.0);
      const double end = std::min(span.end, elapsed);
      if (end <= begin) continue;
      edges.push_back(Edge{begin, lane, category, +1});
      edges.push_back(Edge{end, lane, category, -1});
    }
  }
  std::sort(edges.begin(), edges.end(),
            [](const Edge& a, const Edge& b) { return a.time < b.time; });

  std::map<int, LaneState> lanes;
  int computing = 0;  // lanes whose effective state is compute
  int faulting = 0;
  int communicating = 0;

  auto account = [&](double from, double to) {
    const double duration = to - from;
    if (duration <= 0.0) return;
    if (computing >= 2) {
      budget.compute_s += duration;
    } else if (computing == 1) {
      budget.sequential_s += duration;
    } else if (faulting >= 1) {
      budget.fault_s += duration;
    } else if (communicating >= 1) {
      budget.comm_s += duration;
    } else {
      budget.residual_s += duration;
    }
  };

  double cursor = 0.0;
  for (const Edge& edge : edges) {
    account(cursor, edge.time);
    cursor = std::max(cursor, edge.time);
    LaneState& lane = lanes[edge.lane];
    const auto before = lane.effective();
    lane.slot(edge.category) += edge.delta;
    const auto after = lane.effective();
    if (before == after) continue;
    auto tally = [&](LaneState::Effective state, int delta) {
      switch (state) {
        case LaneState::Effective::kCompute: computing += delta; break;
        case LaneState::Effective::kFault: faulting += delta; break;
        case LaneState::Effective::kComm: communicating += delta; break;
        case LaneState::Effective::kIdle: break;
      }
    };
    tally(before, -1);
    tally(after, +1);
  }
  // Tail after the last edge (all lanes idle by then) is residual.
  account(cursor, elapsed);
  return budget;
}

namespace {

/// How the walker treats a span name. Structural spans (barrier, custom
/// kOther names) cover their constituent leaf spans and are skipped.
enum class SpanClass { kCompute, kFault, kRecvWait, kCommLocal, kSkip };

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

}  // namespace

CriticalPath critical_path(const SpanStore& store,
                           const std::vector<PathMessage>& messages,
                           double elapsed) {
  HETSCALE_REQUIRE(elapsed >= 0.0, "elapsed must be non-negative");
  CriticalPath path;
  path.elapsed_s = elapsed;
  if (elapsed <= 0.0) return path;

  // Closed leaf spans, grouped per lane and sorted by (begin, end): the
  // walk repeatedly needs "the last span on this lane beginning before the
  // cursor".
  std::map<int, SpanClass> classes;
  std::map<int, std::vector<const Span*>> lanes;
  for (int lane = 0; lane < store.lanes(); ++lane) {
    for (const Span& span : store.lane(lane)) {
      if (span.end < span.begin) continue;  // left open (deadlocked run)
      auto it = classes.find(span.name_id);
      if (it == classes.end()) {
        it = classes.emplace(span.name_id, classify(store, span.name_id))
                 .first;
      }
      if (it->second == SpanClass::kSkip) continue;
      lanes[lane].push_back(&span);
    }
  }
  for (auto& [lane, spans] : lanes) {
    std::sort(spans.begin(), spans.end(), [](const Span* a, const Span* b) {
      return std::tie(a->begin, a->end) < std::tie(b->begin, b->end);
    });
  }

  // Delivered messages indexed by (destination, source, tag), sorted by
  // arrival — how a recv.wait span finds the message that satisfied it.
  std::map<std::tuple<int, int, int>, std::vector<const PathMessage*>> inbox;
  for (const PathMessage& m : messages) {
    inbox[std::make_tuple(m.destination, m.source, m.tag)].push_back(&m);
  }
  for (auto& [key, box] : inbox) {
    std::sort(box.begin(), box.end(),
              [](const PathMessage* a, const PathMessage* b) {
                return std::tie(a->arrive, a->depart) <
                       std::tie(b->arrive, b->depart);
              });
  }

  // The run ends when its last leaf span does; walk backwards from there.
  int lane = -1;
  double latest_end = -1.0;
  for (const auto& [l, spans] : lanes) {
    for (const Span* s : spans) {
      if (s->end > latest_end) {
        latest_end = s->end;
        lane = l;
      }
    }
  }

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
  const std::size_t max_steps = store.size() + messages.size() + 64;
  std::size_t steps = 0;
  while (cursor > 0.0 && lane >= 0) {
    if (++steps > max_steps) break;
    const Span* span = nullptr;
    const auto it = lanes.find(lane);
    if (it != lanes.end()) {
      const auto& spans = it->second;
      const auto pos = std::lower_bound(
          spans.begin(), spans.end(), cursor,
          [](const Span* s, double c) { return s->begin < c; });
      if (pos != spans.begin()) span = *(pos - 1);
    }
    if (span == nullptr) break;  // nothing earlier on this lane
    if (span->end < cursor) {
      // Idle gap between the span and the cursor: the lane was blocked with
      // no recorded activity.
      emit(lane, PathSegmentKind::kWait, -1, span->end, cursor);
      cursor = span->end;
      if (cursor <= 0.0) break;
    }
    switch (classes.at(span->name_id)) {
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
        const PathMessage* found = nullptr;
        const auto box =
            inbox.find(std::make_tuple(lane, span->peer, span->tag));
        if (box != inbox.end()) {
          const auto& msgs = box->second;
          auto at = std::upper_bound(
              msgs.begin(), msgs.end(), span->end,
              [](double c, const PathMessage* m) { return c < m->arrive; });
          while (at != msgs.begin()) {
            --at;
            if ((*at)->arrive <= span->begin) break;
            if ((*at)->depart < cursor) {
              found = *at;
              break;
            }
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
        // Unreachable: skipped spans never enter the lane lists.
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

}  // namespace hetscale::obs::reference
