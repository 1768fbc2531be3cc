#include "hetscale/run/runner.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "hetscale/numeric/roots.hpp"
#include "hetscale/scal/combination.hpp"
#include "hetscale/scal/iso_solver.hpp"
#include "hetscale/scal/measure_store.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/args.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::run {
namespace {

TEST(Runner, MapReturnsResultsInRequestOrder) {
  Runner runner(4);
  EXPECT_EQ(runner.jobs(), 4);
  const auto out = runner.map(
      64, [](std::size_t i) { return static_cast<std::int64_t>(i * i); });
  ASSERT_EQ(out.size(), 64u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<std::int64_t>(i * i));
  }
}

TEST(Runner, SingleJobRunsInlineOnTheCaller) {
  Runner runner(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(8);
  runner.run_indexed(8, [&](std::size_t i) {
    seen[i] = std::this_thread::get_id();
    EXPECT_FALSE(Runner::on_worker_thread());
  });
  for (const auto id : seen) EXPECT_EQ(id, caller);
}

TEST(Runner, EmptyAndSingletonBatches) {
  Runner runner(4);
  int calls = 0;
  runner.run_indexed(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  runner.run_indexed(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(Runner, TasksRunOnWorkerLanes) {
  Runner runner(4);
  std::atomic<int> on_worker{0};
  runner.run_indexed(16, [&](std::size_t) {
    if (Runner::on_worker_thread()) on_worker.fetch_add(1);
  });
  // Every lane (pool workers and the participating caller) counts as a
  // worker while draining.
  EXPECT_EQ(on_worker.load(), 16);
  EXPECT_FALSE(Runner::on_worker_thread());
}

TEST(Runner, ExceptionFromBatchPropagates) {
  Runner runner(4);
  EXPECT_THROW(runner.run_indexed(
                   32,
                   [](std::size_t i) {
                     if (i >= 3) throw std::runtime_error("task failed");
                   }),
               std::runtime_error);
  // The pool survives a failed batch.
  const auto out =
      runner.map(8, [](std::size_t i) { return static_cast<int>(i) + 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 36);
}

TEST(Runner, SequentialExceptionReportsFirstIndex) {
  Runner runner(1);
  try {
    runner.run_indexed(8, [](std::size_t i) {
      if (i >= 2) throw std::runtime_error("task " + std::to_string(i));
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "task 2");
  }
}

TEST(Runner, NestedBatchesRunInlineWithoutDeadlock) {
  Runner runner(4);
  const auto out = runner.map(8, [&](std::size_t i) {
    const auto inner = runner.map(4, [&](std::size_t j) {
      EXPECT_TRUE(Runner::on_worker_thread());
      return static_cast<int>(i * 10 + j);
    });
    return std::accumulate(inner.begin(), inner.end(), 0);
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(40 * i + 6));
  }
}

// The nested batch needs three lanes at once: each task waits for the
// other two. Lanes 2 and 3 get no outer work and task 1 is trivial, so
// they are idle and must claim the nested tasks. Were the nested batch run
// inline, its tasks would run one after another and miss their deadlines.
TEST(Runner, NestedBatchesShareIdleLanes) {
  Runner runner(4);
  std::atomic<int> arrived{0};
  std::atomic<int> met{0};
  runner.run_indexed(2, [&](std::size_t i) {
    if (i != 0) return;
    runner.run_indexed(3, [&](std::size_t) {
      arrived.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (arrived.load() < 3 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (arrived.load() == 3) met.fetch_add(1);
    });
  });
  EXPECT_EQ(met.load(), 3);
}

TEST(Runner, NestedFailureReachesTheSubmittingTask) {
  Runner runner(4);
  // Each outer task catches exactly the error its own nested batch threw,
  // and the outer batch completes.
  const auto caught = runner.map(4, [&](std::size_t i) {
    try {
      runner.run_indexed(3, [&](std::size_t j) {
        if (j == 1) throw std::runtime_error("nested " + std::to_string(i));
      });
    } catch (const std::runtime_error& error) {
      return std::string(error.what());
    }
    return std::string("no error");
  });
  for (std::size_t i = 0; i < caught.size(); ++i) {
    EXPECT_EQ(caught[i], "nested " + std::to_string(i));
  }

  // Uncaught, the nested failures of outer tasks 1 and 3 fail both; task 3
  // holds back until task 1 has started, so both failures are recorded and
  // the outer batch must rethrow task 1's.
  std::atomic<bool> one_started{false};
  try {
    runner.run_indexed(4, [&](std::size_t i) {
      if (i == 1) one_started.store(true);
      if (i == 3) {
        while (!one_started.load()) std::this_thread::yield();
      }
      if (i % 2 == 1) {
        runner.run_indexed(2, [&](std::size_t j) {
          if (j == 0) throw std::runtime_error("outer " + std::to_string(i));
        });
      }
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "outer 1");
  }

  // The pool survives both.
  const auto out =
      runner.map(8, [](std::size_t i) { return static_cast<int>(i) + 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 36);
}

TEST(Runner, ThreeLevelNestingKeepsRequestOrder) {
  for (int jobs : {1, 2, 3, 4, 8}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    Runner runner(jobs);
    const auto out = runner.map(5, [&](std::size_t i) {
      return runner.map(4, [&](std::size_t j) {
        return runner.map(3, [&](std::size_t k) {
          return static_cast<int>(100 * i + 10 * j + k);
        });
      });
    });
    ASSERT_EQ(out.size(), 5u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      ASSERT_EQ(out[i].size(), 4u);
      for (std::size_t j = 0; j < out[i].size(); ++j) {
        ASSERT_EQ(out[i][j].size(), 3u);
        for (std::size_t k = 0; k < out[i][j].size(); ++k) {
          EXPECT_EQ(out[i][j][k], static_cast<int>(100 * i + 10 * j + k));
        }
      }
    }
  }
}

TEST(Runner, BatchFromAnotherRunnersTaskRunsInline) {
  Runner outer(4);
  Runner inner(4);
  std::atomic<int> moved{0};
  const auto out = outer.map(6, [&](std::size_t i) {
    const auto caller = std::this_thread::get_id();
    const auto got = inner.map(5, [&](std::size_t j) {
      if (std::this_thread::get_id() != caller) moved.fetch_add(1);
      return static_cast<int>(10 * i + j);
    });
    return std::accumulate(got.begin(), got.end(), 0);
  });
  EXPECT_EQ(moved.load(), 0);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(50 * i + 10));
  }
}

TEST(Runner, ManyBatchesBackToBack) {
  Runner runner(3);
  std::int64_t total = 0;
  for (int round = 0; round < 200; ++round) {
    const auto out = runner.map(
        16, [&](std::size_t i) { return static_cast<std::int64_t>(i) + 1; });
    total += std::accumulate(out.begin(), out.end(), std::int64_t{0});
  }
  EXPECT_EQ(total, 200 * 136);
}

// Forced-steal scenario, deterministic in every interleaving: with jobs=2
// and count=8 the worker's lane holds {1, 3, 5, 7} and pops 7 first (LIFO).
// Task 7 refuses to finish until 1, 3, and 5 have run — and the only lane
// that can still reach them while the worker is pinned is the caller,
// stealing FIFO from the worker's deque. So the batch completes only if
// all three steals happen, whichever thread gets scheduled when.
TEST(Runner, ForcedStealsPreserveOrderedMerge) {
  Runner runner(2);
  std::atomic<int> odd_done{0};
  const auto out = runner.map(8, [&](std::size_t i) {
    if (i == 1 || i == 3 || i == 5) odd_done.fetch_add(1);
    if (i == 7) {
      while (odd_done.load() < 3) std::this_thread::yield();
    }
    return static_cast<std::int64_t>(i * i);
  });
  ASSERT_EQ(out.size(), 8u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<std::int64_t>(i * i));
  }
}

// Same construction, but the guaranteed-stolen task (3 — the worker is
// pinned on 7 while 3 is pending, so only a caller-side steal can run it)
// throws: the failure must cross lanes and rethrow on the caller.
TEST(Runner, ExceptionFromStolenTaskPropagates) {
  Runner runner(2);
  std::atomic<int> odd_done{0};
  std::atomic<bool> threw{false};
  try {
    runner.run_indexed(8, [&](std::size_t i) {
      if (i == 1 || i == 5) odd_done.fetch_add(1);
      if (i == 3) {
        threw.store(true);
        throw std::runtime_error("stolen task 3");
      }
      if (i == 7) {
        // Also unblock on failure: once the batch has failed, the
        // remaining odd tasks are skipped and would never arrive.
        while (odd_done.load() < 2 && !threw.load()) {
          std::this_thread::yield();
        }
      }
    });
    FAIL() << "expected a throw";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "stolen task 3");
  }
  // The pool survives the failed batch.
  const auto out =
      runner.map(8, [](std::size_t i) { return static_cast<int>(i) + 1; });
  EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 36);
}

// Above the lane limit the constructor throws before starting any thread.
TEST(Runner, RejectsJobsAboveTheLaneLimit) {
  try {
    Runner runner(kMaxJobs + 1);
    FAIL() << "accepted " << runner.jobs() << " jobs";
  } catch (const PreconditionError& error) {
    EXPECT_NE(std::string(error.what()).find(std::to_string(kMaxJobs)),
              std::string::npos)
        << error.what();
  }
}

// The engine's core guarantee: a parallel sweep of real simulations equals
// the sequential sweep exactly, field by field.
TEST(Runner, ParallelSimulationSweepMatchesSequentialExactly) {
  const std::vector<std::int64_t> sizes{50, 100, 150, 200, 250};

  auto sequential_combo = scenarios::make_ge(2);
  Runner sequential(1);
  const auto expected = sequential_combo->measure_many(sizes, sequential);

  auto parallel_combo = scenarios::make_ge(2);
  Runner parallel(8);
  const auto got = parallel_combo->measure_many(sizes, parallel);

  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].n, expected[i].n);
    EXPECT_EQ(got[i].seconds, expected[i].seconds);
    EXPECT_EQ(got[i].work_flops, expected[i].work_flops);
    EXPECT_EQ(got[i].speed_flops, expected[i].speed_flops);
    EXPECT_EQ(got[i].speed_efficiency, expected[i].speed_efficiency);
  }
}

// Regression: the iso-solver's speculative refinement must land on the same
// N as plain bisection even where E_s(N) has small non-monotone wiggles
// (the waves replay the exact sequential trajectory). The reference is
// numeric::first_at_least over the direct search's doubling bracket; the
// store is off, so every solve runs its own simulations.
TEST(Runner, IsoSolveIsWorkerCountInvariant) {
  struct StoreOff {
    bool was = scal::MeasurementStore::global().enabled();
    StoreOff() { scal::MeasurementStore::global().set_enabled(false); }
    ~StoreOff() { scal::MeasurementStore::global().set_enabled(was); }
  } store_off;

  auto reference = scenarios::make_ge(2);
  const auto es_at = [&](std::int64_t n) {
    return reference->measure(n).speed_efficiency;
  };
  std::int64_t lo = scal::IsoSolveOptions{}.n_min;
  std::int64_t hi = lo;
  while (es_at(hi) < scenarios::kGeTargetEs) {
    lo = hi;
    hi *= 2;
  }
  const std::int64_t expected_n =
      numeric::first_at_least(es_at, scenarios::kGeTargetEs, lo, hi);
  ASSERT_GE(expected_n, 1);

  for (int jobs : {1, 2, 8}) {
    auto combo = scenarios::make_ge(2);
    Runner runner(jobs);
    const auto got =
        scal::required_problem_size(*combo, scenarios::kGeTargetEs, runner);
    EXPECT_TRUE(got.found) << "jobs=" << jobs;
    EXPECT_EQ(got.n, expected_n) << "jobs=" << jobs;
    EXPECT_EQ(got.achieved_es, es_at(expected_n)) << "jobs=" << jobs;
  }
}

}  // namespace
}  // namespace hetscale::run
