#include "hetscale/obs/budget.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <optional>
#include <queue>

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

using Entry = BudgetTimeline::Entry;

/// A lane's effective state, as stored in timeline entries.
enum State : std::uint8_t { kIdle = 0, kComm, kCompute, kFault };

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

  State effective() const {
    if (fault > 0) return kFault;
    if (compute > 0) return kCompute;
    if (comm > 0) return kComm;
    return kIdle;
  }
};

/// A span the budget counts, clipped below at 0.
struct Counted {
  double begin;
  double end;
  SpanCategory category;
};

/// `span` as the budget counts it: closed, of a counted category, and of
/// positive width once clipped at 0. Whether it begins before the run's
/// end is the sweep's to decide.
std::optional<Counted> counted(const SpanStore& store, const Span& span) {
  if (span.end < span.begin) return std::nullopt;  // never closed
  const SpanCategory category = store.category(span.name_id);
  if (category == SpanCategory::kOther) return std::nullopt;
  const double begin = std::max(span.begin, 0.0);
  if (span.end <= begin) return std::nullopt;
  return Counted{begin, span.end, category};
}

/// Turns one lane's counted spans, fed in begin order, into its timeline
/// entries: opens come from the feed, closes from a small heap of pending
/// ends, and all edges at one instant fold into one entry.
class LanePass {
 public:
  explicit LanePass(std::vector<Entry>& out) : out_(out), mark_(out.size()) {}

  /// False when `span` begins before the previous one: the lane is not in
  /// begin order and must be sorted first.
  bool add(const Counted& span) {
    if (span.begin < last_begin_) return false;
    last_begin_ = span.begin;
    while (!ends_.empty() && ends_.top().first <= span.begin) close_next();
    edge(span.begin, span.category, +1);
    ends_.emplace(span.end, span.category);
    return true;
  }

  void finish() {
    while (!ends_.empty()) close_next();
  }

 private:
  using End = std::pair<double, SpanCategory>;

  void close_next() {
    const End end = ends_.top();
    ends_.pop();
    edge(end.first, end.second, -1);
  }

  void edge(double time, SpanCategory category, int delta) {
    if (out_.size() == mark_ || out_.back().time != time) {
      const State now = lane_.effective();
      out_.push_back(Entry{time, now, now});
    }
    lane_.slot(category) += delta;
    out_.back().after = lane_.effective();
  }

  std::vector<Entry>& out_;
  const std::size_t mark_;  ///< where this lane's entries start in out_
  LaneState lane_;
  double last_begin_ = 0.0;  // counted spans begin at or after 0
  std::priority_queue<End, std::vector<End>, std::greater<End>> ends_;
};

/// Append lane `lane`'s timeline to `out`. vmpi records a lane's spans in
/// begin order, so one pass in store order usually suffices; fault hooks
/// record checkpoint and rework spans before the compute span enclosing
/// them, so such a lane is sorted on its own (in `buffer`).
void append_lane(const SpanStore& store, int lane, std::vector<Entry>& out,
                 std::vector<Counted>& buffer) {
  const std::size_t mark = out.size();
  {
    LanePass pass(out);
    bool ordered = true;
    for (const Span& span : store.lane(lane)) {
      const std::optional<Counted> c = counted(store, span);
      if (c && !pass.add(*c)) {
        ordered = false;
        break;
      }
    }
    if (ordered) {
      pass.finish();
      return;
    }
  }
  out.resize(mark);
  buffer.clear();
  for (const Span& span : store.lane(lane)) {
    if (const std::optional<Counted> c = counted(store, span)) {
      buffer.push_back(*c);
    }
  }
  std::sort(buffer.begin(), buffer.end(),
            [](const Counted& a, const Counted& b) {
              return a.begin < b.begin;
            });
  LanePass pass(out);
  for (const Counted& c : buffer) pass.add(c);
  pass.finish();
}

/// Merge the sorted runs [bounds[i], bounds[i + 1]) of `entries` pairwise,
/// round by round, into one sorted run, ping-ponging between two buffers.
void merge_runs(std::vector<Entry>& entries, std::vector<std::size_t> bounds) {
  if (bounds.size() <= 2) return;
  const auto by_time = [](const Entry& a, const Entry& b) {
    return a.time < b.time;
  };
  std::vector<Entry> other(entries.size());
  while (bounds.size() > 2) {
    std::vector<std::size_t> merged{0};
    for (std::size_t i = 0; i + 1 < bounds.size(); i += 2) {
      const auto lo = static_cast<std::ptrdiff_t>(bounds[i]);
      const auto mid = static_cast<std::ptrdiff_t>(bounds[i + 1]);
      const auto hi = i + 2 < bounds.size()
                          ? static_cast<std::ptrdiff_t>(bounds[i + 2])
                          : mid;
      std::merge(entries.begin() + lo, entries.begin() + mid,
                 entries.begin() + mid, entries.begin() + hi,
                 other.begin() + lo, by_time);
      merged.push_back(static_cast<std::size_t>(hi));
    }
    entries.swap(other);
    bounds = std::move(merged);
  }
}

}  // namespace

BudgetTimeline BudgetTimeline::of_lanes(const SpanStore& store, int first,
                                        int last) {
  HETSCALE_REQUIRE(0 <= first && first <= last && last <= store.lanes(),
                   "timeline lanes out of range");
  BudgetTimeline timeline;
  std::vector<std::size_t> bounds{0};
  std::vector<Counted> buffer;
  for (int lane = first; lane < last; ++lane) {
    append_lane(store, lane, timeline.entries_, buffer);
    if (timeline.entries_.size() > bounds.back()) {
      bounds.push_back(timeline.entries_.size());
    }
  }
  merge_runs(timeline.entries_, std::move(bounds));
  return timeline;
}

TimeBudget sweep_time_budget(const std::vector<BudgetTimeline>& timelines,
                             double elapsed) {
  HETSCALE_REQUIRE(elapsed >= 0.0, "elapsed time must be non-negative");
  TimeBudget budget;
  budget.elapsed_s = elapsed;

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
  auto tally = [&](std::uint8_t state, int delta) {
    switch (state) {
      case kCompute: computing += delta; break;
      case kFault: faulting += delta; break;
      case kComm: communicating += delta; break;
      default: break;
    }
  };

  // A handful of timelines (one per partition). Find the one with the
  // earliest head by a linear scan, then take its entries up to the next
  // earliest head — the order of equal times does not matter. Edges at or
  // past `elapsed` are clipped away: spans still open there are charged up
  // to it by the final account().
  constexpr double kNever = std::numeric_limits<double>::infinity();
  std::vector<std::size_t> next(timelines.size(), 0);
  double cursor = 0.0;
  for (;;) {
    std::size_t from = timelines.size();
    double first = kNever;
    double second = kNever;
    for (std::size_t t = 0; t < timelines.size(); ++t) {
      const std::vector<Entry>& entries = timelines[t].entries();
      if (next[t] == entries.size()) continue;
      const double head = entries[next[t]].time;
      if (head < first) {
        second = first;
        first = head;
        from = t;
      } else {
        second = std::min(second, head);
      }
    }
    if (!(first < elapsed)) break;
    const std::vector<Entry>& entries = timelines[from].entries();
    std::size_t& at = next[from];
    do {
      const Entry& entry = entries[at];
      account(cursor, entry.time);
      cursor = std::max(cursor, entry.time);
      if (entry.before != entry.after) {
        tally(entry.before, -1);
        tally(entry.after, +1);
      }
    } while (++at < entries.size() && entries[at].time <= second &&
             entries[at].time < elapsed);
  }
  account(cursor, elapsed);
  return budget;
}

TimeBudget compute_time_budget(const SpanStore& store, double elapsed) {
  return sweep_time_budget({BudgetTimeline::of_lanes(store, 0, store.lanes())},
                           elapsed);
}

}  // namespace hetscale::obs
