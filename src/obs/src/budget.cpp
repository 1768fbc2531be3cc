#include "hetscale/obs/budget.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "hetscale/obs/span.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::obs {

TimeBudget& TimeBudget::operator+=(const TimeBudget& other) {
  compute_s += other.compute_s;
  comm_s += other.comm_s;
  sequential_s += other.sequential_s;
  fault_s += other.fault_s;
  residual_s += other.residual_s;
  elapsed_s += other.elapsed_s;
  return *this;
}

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

}  // namespace hetscale::obs
