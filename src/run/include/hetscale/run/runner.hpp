// The experiment engine's worker pool.
//
// Every paper artifact is a sweep of *independent, deterministic* DES
// simulations. A Runner executes such a batch across a pool of worker
// threads: each task stays a single-threaded simulation, parallelism is
// only *across* tasks, and results are merged in request order — so any
// output derived from a batch is bit-identical to the sequential run,
// whatever the worker count or scheduling.
//
// Scheduling is work-stealing: each lane (the caller plus every pool
// thread) owns a fixed-capacity deque of task indices, dealt round-robin at
// submission. A lane pops its own deque LIFO and, only once that runs dry,
// steals FIFO from other lanes with a lock-free CAS. The hot path (own-lane
// pop) touches no shared cache line of any other lane; the cold path keeps
// every lane busy when task costs are skewed — exactly the shape of an
// iso-efficiency ladder, where one probe dominates the level. Stealing
// reorders *execution*, never *results*: slot i still holds task i.
//
// Nested batches share the pool. A batch submitted from inside a task of
// this Runner is published like a top-level one: the submitting lane drains
// it first, and idle lanes claim the rest — pool threads whose outer work
// has run out, and the external caller while it waits for its own batch.
// This is what lets every iso-solve of a series bisect in parallel waves
// although the solves themselves already run as one batch.
//
// No deadlock: a thread blocks only on a batch it submitted, and only once
// it has drained its own lane and no index of that batch is left unclaimed;
// whichever thread claims an index runs it to completion. A blocked thread
// therefore waits on running tasks, each of which can block only on a batch
// nested inside it — the chain of waits follows the finite nesting tree and
// cannot close into a cycle. A nested submitter takes no unrelated work
// while it waits, so a long outer task never delays its wave.
//
// Determinism contract: task i must depend only on its own inputs (no
// shared mutable state between tasks); the Runner guarantees result slot i
// holds task i's value and that the caller observes all writes after the
// batch returns. With jobs == 1 no threads are created and every batch
// runs inline on the caller.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace hetscale::run {

class Runner {
 public:
  /// jobs <= 0 picks the hardware concurrency (normalize_jobs(0), see
  /// support/args.hpp). jobs == 1 is the sequential fallback: no worker
  /// threads at all, batches run inline on the caller. jobs above kMaxJobs
  /// throws PreconditionError before any thread starts.
  explicit Runner(int jobs = 0);
  ~Runner();

  Runner(const Runner&) = delete;
  Runner& operator=(const Runner&) = delete;

  int jobs() const { return jobs_; }

  /// Run task(0) .. task(count - 1), blocking until all have finished.
  /// Tasks may execute concurrently and in any order when jobs() > 1; they
  /// must be safe to call from different threads at once. If tasks throw,
  /// the batch drains (remaining unstarted tasks are skipped) and the
  /// failure with the smallest task index is rethrown on the thread that
  /// submitted the batch — including failures in stolen tasks.
  ///
  /// A batch submitted from inside a task of this Runner runs on the
  /// shared pool: the submitting lane drains it, idle lanes help, and the
  /// submitter then waits for the helpers without taking other work (see
  /// the header comment for why this cannot deadlock). Single-task batches
  /// and batches submitted from a task of a *different* Runner run inline,
  /// since lane indices belong to one Runner.
  void run_indexed(std::size_t count,
                   const std::function<void(std::size_t)>& task);

  /// Run fn(i) for i in [0, count) and return the results in index order.
  /// The result type must be default-constructible.
  template <class Fn>
  auto map(std::size_t count, Fn&& fn)
      -> std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> {
    std::vector<std::decay_t<std::invoke_result_t<Fn&, std::size_t>>> out(
        count);
    run_indexed(count, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

  /// True on a thread currently executing a Runner task (any Runner).
  static bool on_worker_thread();

 private:
  struct Batch;

  void worker_loop(std::size_t lane);
  void help(std::unique_lock<std::mutex>& lock, std::size_t lane);
  void drain(Batch& batch, std::size_t lane);
  void retire(Batch& batch);
  void shut_down();

  int jobs_ = 1;
  std::mutex mutex_;
  /// Wakes idle lanes when a batch is published and submitters when their
  /// last helper leaves.
  std::condition_variable cv_;
  /// Published batches that may still hold unclaimed indices, oldest
  /// first; guarded by mutex_.
  std::vector<Batch*> open_;
  /// Set once, on destruction; guarded by mutex_.
  bool stop_ = false;
  /// Declared last: the pool threads use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace hetscale::run
