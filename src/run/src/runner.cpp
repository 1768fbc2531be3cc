#include "hetscale/run/runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <memory>

#include "hetscale/support/args.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::run {

namespace {

// The lane this thread drains, and for which Runner: set for a pool
// thread's whole life and for the external caller while its batch runs.
// runner == nullptr means "not executing any Runner's task".
struct Seat {
  const Runner* runner = nullptr;
  std::size_t lane = 0;
};

thread_local Seat t_seat;

// One lane's deque of task indices — a Chase-Lev deque specialized to this
// Runner's lifecycle: the buffer is filled once *before* the batch is
// published (the mutex handshake in run_indexed gives every helper a
// happens-before edge to those writes) and nothing pushes mid-batch. With
// the buffer immutable, the classic hazards (growth, a steal reading a slot
// the owner is overwriting) vanish, and what remains is the owner/thief
// race on the *indices*: the owner pops at `bottom` with only a seq_cst
// fence on its fast path, thieves CAS `top` forward. They contend only on
// the deque's last element. Once every deque of a batch is empty it stays
// empty, so a drain that finds no index proves the batch fully claimed.
struct alignas(64) Lane {
  std::atomic<std::ptrdiff_t> top{0};
  std::atomic<std::ptrdiff_t> bottom{0};
  const std::size_t* buf = nullptr;  ///< slice of Batch::items; read-only
};

}  // namespace

// One submitted batch, owned by the submitting thread's stack. The deques
// hand out task indices; the helper count and the error slot are guarded by
// the owning Runner's mutex.
struct Runner::Batch {
  const std::function<void(std::size_t)>* task = nullptr;
  std::vector<std::size_t> items;    ///< indices grouped by owning lane
  std::unique_ptr<Lane[]> lanes;     ///< one deque per lane
  std::size_t lane_count = 0;
  std::atomic<bool> failed{false};
  int helpers = 0;  ///< threads other than the submitter draining it
  std::size_t error_index = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;
};

namespace {

enum class StealResult { kEmpty, kContended, kSuccess };

/// Owner-side LIFO pop. Only the lane's owner calls this. The provisional
/// bottom decrement plus seq_cst fence orders it against a concurrent
/// thief's top read; when one element remains, owner and thief race for it
/// through the CAS on top.
bool pop_bottom(Lane& lane, std::size_t& out) {
  const std::ptrdiff_t b = lane.bottom.load(std::memory_order_relaxed) - 1;
  lane.bottom.store(b, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  std::ptrdiff_t t = lane.top.load(std::memory_order_relaxed);
  if (t > b) {
    lane.bottom.store(b + 1, std::memory_order_relaxed);
    return false;
  }
  out = lane.buf[b];
  if (t == b) {
    const bool won = lane.top.compare_exchange_strong(
        t, t + 1, std::memory_order_seq_cst, std::memory_order_relaxed);
    lane.bottom.store(b + 1, std::memory_order_relaxed);
    return won;
  }
  return true;
}

/// Thief-side FIFO steal. Reading buf[t] before the CAS is safe because the
/// buffer never changes during a batch; the CAS then decides whether this
/// thief actually owns index t. A failed CAS is *not* "empty" — another
/// claimant moved top — so the caller must re-scan.
StealResult steal_top(Lane& lane, std::size_t& out) {
  std::ptrdiff_t t = lane.top.load(std::memory_order_acquire);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const std::ptrdiff_t b = lane.bottom.load(std::memory_order_acquire);
  if (t >= b) return StealResult::kEmpty;
  out = lane.buf[t];
  if (!lane.top.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
    return StealResult::kContended;
  }
  return StealResult::kSuccess;
}

/// Scan the other lanes for work, restarting while any scan was contended:
/// a lost CAS means indices were still in flight, and reporting "no work"
/// then would retire a lane while tasks remain unclaimed.
bool steal_any(Lane* lanes, std::size_t lane_count, std::size_t self,
               std::size_t& out) {
  for (;;) {
    bool contended = false;
    for (std::size_t d = 1; d < lane_count; ++d) {
      Lane& victim = lanes[(self + d) % lane_count];
      const StealResult r = steal_top(victim, out);
      if (r == StealResult::kSuccess) return true;
      if (r == StealResult::kContended) contended = true;
    }
    if (!contended) return false;
  }
}

}  // namespace

Runner::Runner(int jobs)
    : jobs_(normalize_jobs(std::max(jobs, 0))) {
  // The caller participates in draining (lane 0), so jobs_ - 1 pool threads
  // give jobs_ concurrent lanes. A thread that fails to start must not
  // leave the ones already running pointing at a half-built Runner.
  workers_.reserve(static_cast<std::size_t>(jobs_ - 1));
  try {
    for (std::size_t lane = 1; lane < static_cast<std::size_t>(jobs_);
         ++lane) {
      workers_.emplace_back([this, lane] { worker_loop(lane); });
    }
  } catch (...) {
    shut_down();
    throw;
  }
}

Runner::~Runner() { shut_down(); }

void Runner::shut_down() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

bool Runner::on_worker_thread() { return t_seat.runner != nullptr; }

void Runner::drain(Batch& batch, std::size_t lane) {
  for (;;) {
    std::size_t i;
    if (!pop_bottom(batch.lanes[lane], i) &&
        !steal_any(batch.lanes.get(), batch.lane_count, lane, i)) {
      return;
    }
    if (batch.failed.load(std::memory_order_relaxed)) continue;
    try {
      (*batch.task)(i);
    } catch (...) {
      batch.failed.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mutex_);
      if (i < batch.error_index) {
        batch.error_index = i;
        batch.error = std::current_exception();
      }
    }
  }
}

void Runner::retire(Batch& batch) {
  const auto it = std::find(open_.begin(), open_.end(), &batch);
  if (it != open_.end()) open_.erase(it);
}

void Runner::help(std::unique_lock<std::mutex>& lock, std::size_t lane) {
  Batch& batch = *open_.front();
  ++batch.helpers;
  lock.unlock();
  drain(batch, lane);
  lock.lock();
  retire(batch);
  // The submitter frees the batch once its last helper has left.
  if (--batch.helpers == 0) cv_.notify_all();
}

void Runner::worker_loop(std::size_t lane) {
  t_seat = {this, lane};
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [&] { return stop_ || !open_.empty(); });
    if (stop_) return;
    help(lock, lane);
  }
}

void Runner::run_indexed(std::size_t count,
                         const std::function<void(std::size_t)>& task) {
  HETSCALE_REQUIRE(task != nullptr, "batch task must be callable");
  if (count == 0) return;
  const bool top_level = t_seat.runner == nullptr;
  const bool other_runner = !top_level && t_seat.runner != this;
  if (jobs_ == 1 || count == 1 || other_runner) {
    for (std::size_t i = 0; i < count; ++i) task(i);
    return;
  }

  Batch batch;
  batch.task = &task;
  batch.lane_count = static_cast<std::size_t>(jobs_);
  batch.lanes = std::make_unique<Lane[]>(batch.lane_count);
  batch.items.resize(count);
  // Deal indices round-robin: lane l owns l, l + L, l + 2L, ... ascending
  // in its buffer. The owner pops LIFO, so each lane starts on its
  // highest-index task; callers that order batches ascending by cost (see
  // scal's measure_many) thus get LPT-style scheduling for free, and
  // thieves pick up each lane's cheap leftovers FIFO.
  std::size_t pos = 0;
  for (std::size_t l = 0; l < batch.lane_count; ++l) {
    Lane& lane = batch.lanes[l];
    lane.buf = batch.items.data() + pos;
    std::size_t size = 0;
    for (std::size_t i = l; i < count; i += batch.lane_count) {
      batch.items[pos + size] = i;
      ++size;
    }
    lane.bottom.store(static_cast<std::ptrdiff_t>(size),
                      std::memory_order_relaxed);
    pos += size;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    open_.push_back(&batch);
  }
  cv_.notify_all();

  // A top-level caller takes lane 0 for the batch's lifetime, so its tasks
  // count as worker tasks and the batches they submit join this pool.
  if (top_level) t_seat = {this, 0};
  drain(batch, t_seat.lane);

  // Every index is claimed now; wait for the helpers still running theirs.
  // The top-level caller is idle until then, so it helps with the nested
  // batches of those tasks; a nested submitter waits without taking
  // unrelated work, so its wave never waits behind a long outer task.
  std::unique_lock<std::mutex> lock(mutex_);
  retire(batch);
  const auto can_help = [&] { return top_level && !open_.empty(); };
  while (batch.helpers != 0) {
    if (can_help()) {
      help(lock, 0);
    } else {
      cv_.wait(lock, [&] { return batch.helpers == 0 || can_help(); });
    }
  }
  lock.unlock();
  if (top_level) t_seat = {};
  if (batch.error) std::rethrow_exception(batch.error);
}

}  // namespace hetscale::run
