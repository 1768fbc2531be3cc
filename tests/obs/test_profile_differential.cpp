// Differential tests: the per-lane budget timelines and the lazily indexed
// critical-path walk against the reference implementations
// (reference_profile.hpp) on seeded random span stores. Results must be
// bitwise equal — every budget bucket, every path total and every segment
// — also when the lanes are split into contiguous blocks built on their
// own threads, as the partitions of a run build them.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <deque>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "hetscale/obs/budget.hpp"
#include "hetscale/obs/critical_path.hpp"
#include "hetscale/obs/span.hpp"
#include "reference_profile.hpp"

namespace hetscale::obs {
namespace {

constexpr std::uint64_t kSeeds = 400;

std::uint64_t bits(double value) { return std::bit_cast<std::uint64_t>(value); }

void expect_same(const TimeBudget& got, const TimeBudget& want) {
  EXPECT_EQ(bits(got.compute_s), bits(want.compute_s));
  EXPECT_EQ(bits(got.comm_s), bits(want.comm_s));
  EXPECT_EQ(bits(got.sequential_s), bits(want.sequential_s));
  EXPECT_EQ(bits(got.fault_s), bits(want.fault_s));
  EXPECT_EQ(bits(got.residual_s), bits(want.residual_s));
  EXPECT_EQ(bits(got.elapsed_s), bits(want.elapsed_s));
}

void expect_same(const CriticalPath& got, const CriticalPath& want) {
  EXPECT_EQ(bits(got.elapsed_s), bits(want.elapsed_s));
  EXPECT_EQ(bits(got.compute_s), bits(want.compute_s));
  EXPECT_EQ(bits(got.comm_s), bits(want.comm_s));
  EXPECT_EQ(bits(got.wait_s), bits(want.wait_s));
  EXPECT_EQ(bits(got.fault_s), bits(want.fault_s));
  ASSERT_EQ(got.segments.size(), want.segments.size());
  for (std::size_t i = 0; i < got.segments.size(); ++i) {
    const PathSegment& g = got.segments[i];
    const PathSegment& w = want.segments[i];
    EXPECT_EQ(g.lane, w.lane) << "segment " << i;
    EXPECT_EQ(g.kind, w.kind) << "segment " << i;
    EXPECT_EQ(g.peer, w.peer) << "segment " << i;
    EXPECT_EQ(bits(g.begin), bits(w.begin)) << "segment " << i;
    EXPECT_EQ(bits(g.end), bits(w.end)) << "segment " << i;
  }
}

/// A seeded random run: spans on a coarse time grid (so shared edges,
/// zero widths and equal keys are common) with a non-dyadic step in most
/// seeds (so the budget's float sums depend on how segments split), plus
/// messages for the recv.wait spans and some noise.
struct RandomRun {
  SpanStore store;
  std::vector<PathMessage> messages;
  double step = 0.0;
  double last_end = 0.0;  ///< latest closed span end
};

class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}
  int below(int n) {
    return static_cast<int>(rng_() % static_cast<unsigned>(n));
  }
  bool chance(int percent) { return below(100) < percent; }

 private:
  std::mt19937_64 rng_;
};

RandomRun random_run(std::uint64_t seed) {
  Draw draw(seed);
  RandomRun run;
  SpanStore& store = run.store;
  const int compute = store.intern("compute");
  const int send = store.intern("send.wait");
  const int recv = store.intern("recv.wait");
  const int barrier = store.intern("barrier");
  const int checkpoint = store.intern("checkpoint");
  const int rework = store.intern("fault.rework");
  const int marker = store.intern("phase.marker");  // kOther
  const int leaves[] = {compute, send, recv, checkpoint, rework, marker};
  const double steps[] = {0.125, 0.1, 1.0 / 3.0, 0.7};
  run.step = steps[draw.below(4)];
  const double step = run.step;
  const int lanes = 1 + draw.below(9);
  store.presize_lanes(lanes);

  auto message_for = [&](int lane, int peer, int tag, double begin,
                         double end) {
    if (peer < 0 || !draw.chance(80)) return;
    // Arrive at the end (the wire gated the receive), inside, or before the
    // span began (pure wait); sometimes twice with tied arrivals, departing
    // together or one step apart.
    const double arrive = draw.chance(60)   ? end
                          : draw.chance(50) ? begin - step * draw.below(2)
                                            : begin + (end - begin) / 2;
    const double depart = arrive - step * draw.below(4);
    const int copies = draw.chance(30) ? 2 : 1;
    const int spread = draw.below(2);
    for (int c = 0; c < copies; ++c) {
      run.messages.push_back(PathMessage{peer, lane, tag, 8.0 * (c + 1),
                                         depart - spread * c * step, arrive});
    }
  };
  auto leaf = [&](int lane, int name, double begin, double end) {
    const int peer = draw.below(lanes + 1) - 1;
    const int tag = draw.below(3);
    store.record(lane, name, begin, end, peer, tag);
    if (name == recv) message_for(lane, peer, tag, begin, end);
  };

  for (int lane = 0; lane < lanes; ++lane) {
    int tick = draw.below(5) - 2;  // lanes may start before 0
    const int count = draw.below(30);
    for (int i = 0; i < count; ++i) {
      const double begin = tick * step;
      const int width = draw.below(5);
      switch (draw.below(10)) {
        case 0: {  // a barrier with a send and a recv nested beneath it
          const std::size_t handle = store.open(lane, barrier, begin);
          const double mid = begin + step * draw.below(3);
          const double end = mid + step * draw.below(3);
          leaf(lane, send, begin, mid);
          leaf(lane, recv, mid, end);
          store.close(handle, end + step * draw.below(2));
          tick += 6;
          break;
        }
        case 1: {  // a fault charge recorded before its enclosing compute
          const int offset = draw.below(3);
          const int length = draw.below(3);
          store.record(lane, draw.chance(50) ? checkpoint : rework,
                       begin + offset * step, begin + (offset + length) * step);
          store.record(lane, compute, begin,
                       begin + (offset + length + draw.below(2)) * step);
          tick += offset + length + 2;
          break;
        }
        case 2: {  // anywhere: out of begin order, overlapping, past the end
          const double anywhere = (draw.below(44) - 4) * step;
          leaf(lane, leaves[draw.below(6)], anywhere, anywhere + width * step);
          break;
        }
        case 3:
          if (draw.chance(30)) {
            store.open(lane, leaves[draw.below(6)], begin);  // never closed
          } else {
            leaf(lane, leaves[draw.below(6)], begin, begin + width * step);
          }
          break;
        default:
          leaf(lane, leaves[draw.below(3)], begin, begin + width * step);
          break;
      }
      tick += draw.below(4);
    }
  }
  // Noise: messages nobody waits for, to lanes that do not exist, and ties.
  for (int i = draw.below(6); i > 0; --i) {
    const double depart = draw.below(30) * step;
    run.messages.push_back(PathMessage{draw.below(lanes + 2) - 1,
                                       draw.below(lanes + 2) - 1,
                                       draw.below(3), 1.0, depart,
                                       depart + draw.below(3) * step});
  }
  for (int lane = 0; lane < store.lanes(); ++lane) {
    for (const Span& span : store.lane(lane)) {
      if (span.end >= span.begin) {
        run.last_end = std::max(run.last_end, span.end);
      }
    }
  }
  return run;
}

/// Elapsed times around the run's end: exact, short (spans are clipped),
/// long (a residual tail), off the grid, and zero.
std::vector<double> elapsed_times(const RandomRun& run) {
  return {run.last_end, run.last_end + run.step,
          std::max(0.0, run.last_end - 2 * run.step),
          std::max(0.0, run.last_end * 0.37), 0.0};
}

/// The messages regrouped per sending lane, as vmpi::TraceRecorder keeps
/// them (sources outside the lanes land in lane 0).
MessageLanes by_sender(const RandomRun& run) {
  MessageLanes lanes(static_cast<std::size_t>(std::max(run.store.lanes(), 1)));
  for (const PathMessage& m : run.messages) {
    const bool known = m.source >= 0 && m.source < run.store.lanes();
    lanes[known ? static_cast<std::size_t>(m.source) : 0].push_back(m);
  }
  return lanes;
}

TEST(ProfileDifferential, BudgetMatchesReference) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RandomRun run = random_run(seed);
    for (const double elapsed : elapsed_times(run)) {
      expect_same(compute_time_budget(run.store, elapsed),
                  reference::compute_time_budget(run.store, elapsed));
    }
  }
}

TEST(ProfileDifferential, BudgetMatchesReferenceInLaneBlocks) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RandomRun run = random_run(seed);
    const int lanes = run.store.lanes();
    for (int blocks = 1; blocks <= 8; ++blocks) {
      // Contiguous blocks balanced to within one lane, each built on its
      // own thread, as a run's partitions build theirs.
      std::vector<BudgetTimeline> timelines(static_cast<std::size_t>(blocks));
      std::vector<std::thread> threads;
      for (int b = 0; b < blocks; ++b) {
        threads.emplace_back([&, b] {
          timelines[static_cast<std::size_t>(b)] = BudgetTimeline::of_lanes(
              run.store, b * lanes / blocks, (b + 1) * lanes / blocks);
        });
      }
      for (std::thread& thread : threads) thread.join();
      for (const double elapsed : elapsed_times(run)) {
        expect_same(sweep_time_budget(timelines, elapsed),
                    reference::compute_time_budget(run.store, elapsed));
      }
    }
  }
}

TEST(ProfileDifferential, CriticalPathMatchesReference) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const RandomRun run = random_run(seed);
    const MessageLanes lanes = by_sender(run);
    const MessageLanes one_lane = {{run.messages.begin(), run.messages.end()}};
    for (const double elapsed : elapsed_times(run)) {
      const CriticalPath want =
          reference::critical_path(run.store, run.messages, elapsed);
      expect_same(critical_path(run.store, lanes, elapsed), want);
      expect_same(critical_path(run.store, one_lane, elapsed), want);
    }
  }
}

TEST(ProfileDifferential, TimelinesKeepEntriesThatChangeNoState) {
  // A send.wait nested in a compute span changes nothing about the lane's
  // state, yet its edges split the sweep's segments: (0.1 - 0) + (0.2 -
  // 0.1) + (0.3 - 0.2) is not 0.3 - 0 in binary floating point.
  SpanStore store;
  const int compute = store.intern("compute");
  const int send = store.intern("send.wait");
  store.record(0, compute, 0.0, 0.3);
  store.record(0, send, 0.1, 0.2);
  const BudgetTimeline timeline = BudgetTimeline::of_lanes(store, 0, 1);
  ASSERT_EQ(timeline.entries().size(), 4u);
  EXPECT_EQ(timeline.entries()[1].before, timeline.entries()[1].after);
  EXPECT_EQ(timeline.entries()[2].before, timeline.entries()[2].after);
  expect_same(sweep_time_budget({timeline}, 0.3),
              reference::compute_time_budget(store, 0.3));
}

TEST(ProfileDifferential, TiesTheWalkCanTellApartResolveAsTheReferenceSort) {
  // Forty leaf spans with one (begin, end) but different peers, in store
  // order. std::sort does not keep equal keys in order, so the walk must
  // pick the span the reference's sort leaves last, not the last recorded.
  SpanStore store;
  const int send = store.intern("send.wait");
  for (int peer = 0; peer < 40; ++peer) {
    store.record(0, send, 1.0, 2.0, peer);
  }
  const CriticalPath want = reference::critical_path(store, {}, 2.0);
  ASSERT_EQ(want.segments.size(), 2u);
  expect_same(critical_path(store, {}, 2.0), want);
}

TEST(ProfileDifferential, FaultChargesRecordedBeforeTheirComputeAreSorted) {
  // The fault hooks record checkpoint/rework before the compute span that
  // encloses them, so the lane is not in begin order.
  SpanStore store;
  const int compute = store.intern("compute");
  const int checkpoint = store.intern("checkpoint");
  const int rework = store.intern("fault.rework");
  store.record(0, checkpoint, 0.25, 0.5);
  store.record(0, rework, 0.5, 0.75);
  store.record(0, compute, 0.0, 1.0);
  store.record(1, compute, 0.0, 0.5);
  const TimeBudget budget = compute_time_budget(store, 1.0);
  EXPECT_EQ(budget.compute_s, 0.25);     // [0, 0.25): both lanes compute
  EXPECT_EQ(budget.sequential_s, 0.5);   // [0.25, 0.5) lane 1; [0.75, 1)
  EXPECT_EQ(budget.fault_s, 0.25);       // [0.5, 0.75): lane 0 reworks
  expect_same(budget, reference::compute_time_budget(store, 1.0));
}

}  // namespace
}  // namespace hetscale::obs
