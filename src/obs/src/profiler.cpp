#include "hetscale/obs/profiler.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

namespace hetscale::obs {

namespace {
std::atomic<Profiler*> g_current{nullptr};
}  // namespace

void Profiler::add_run(RunProfile run) {
  std::lock_guard<std::mutex> lock(mutex_);
  runs_.push_back(std::move(run));
}

std::size_t Profiler::runs() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return runs_.size();
}

std::vector<RunProfile> Profiler::sorted_runs() const {
  std::vector<RunProfile> copy;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    copy = runs_;
  }
  // Canonical fold order: completion order varies with --jobs, the sorted
  // order does not. RunProfile holds no NaNs, so the partial order is total.
  std::sort(copy.begin(), copy.end());
  return copy;
}

Profiler* current() { return g_current.load(std::memory_order_acquire); }

ProfilerScope::ProfilerScope(Profiler& profiler)
    : previous_(g_current.exchange(&profiler, std::memory_order_acq_rel)) {}

ProfilerScope::~ProfilerScope() {
  g_current.store(previous_, std::memory_order_release);
}

}  // namespace hetscale::obs
