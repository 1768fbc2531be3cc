// Task<T>: a lazily-started coroutine with continuation chaining.
//
// Every simulated process (an MPI rank, a collective in flight, a benchmark
// kernel) is a Task. Tasks compose: `co_await child_task()` runs the child
// at once. A child that finishes without suspending returns to the parent
// like a call, so a loop of such awaits (a root taking messages that have
// already arrived) keeps a constant stack depth even where a symmetric
// transfer is not compiled to a tail call (ASan builds). A child that
// suspends resumes the parent by symmetric transfer when it reaches final
// suspension. All of it runs within one OS thread, so the simulation is
// fully deterministic and race-free (DESIGN.md §6.2).
#pragma once

#include <coroutine>
#include <cstddef>
#include <exception>
#include <optional>
#include <utility>

#include "hetscale/des/frame_pool.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::des {

template <class T>
class Task;

namespace detail {

struct PromiseBase {
  std::coroutine_handle<> continuation;
  std::exception_ptr exception;

  // Coroutine frames come from the thread-local slab pool (frame_pool.hpp):
  // simulated operations allocate frames of a handful of sizes at a very
  // high rate, and recycling them keeps the simulation hot path free of
  // malloc traffic. Inherited by every Task promise.
  static void* operator new(std::size_t size) { return frame_alloc(size); }
  static void operator delete(void* p, std::size_t size) noexcept {
    frame_free(p, size);
  }

  std::suspend_always initial_suspend() noexcept { return {}; }

  struct FinalAwaiter {
    bool await_ready() noexcept { return false; }
    template <class Promise>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<Promise> handle) noexcept {
      auto continuation = handle.promise().continuation;
      return continuation ? continuation : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };

  FinalAwaiter final_suspend() noexcept { return {}; }
  void unhandled_exception() noexcept { exception = std::current_exception(); }
};

}  // namespace detail

/// An owning handle to a lazily-started coroutine producing a T.
template <class T>
class [[nodiscard]] Task {
 public:
  struct promise_type : detail::PromiseBase {
    std::optional<T> value;

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    template <class U>
    void return_value(U&& v) {
      value.emplace(std::forward<U>(v));
    }
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return handle_ && handle_.done(); }

  /// Release ownership of the raw handle (used by the scheduler for roots).
  std::coroutine_handle<promise_type> release() {
    return std::exchange(handle_, {});
  }

  // Awaitable interface: `co_await task` starts the task and resumes the
  // awaiter when the task completes, yielding its value. If the task
  // finished without suspending, await_suspend returns false and the
  // awaiter simply continues; otherwise the task's final suspension
  // resumes it.
  bool await_ready() const noexcept { return !handle_ || handle_.done(); }
  bool await_suspend(std::coroutine_handle<> awaiter) {
    handle_.resume();
    if (handle_.done()) return false;
    handle_.promise().continuation = awaiter;
    return true;
  }
  T await_resume() {
    auto& promise = handle_.promise();
    if (promise.exception) std::rethrow_exception(promise.exception);
    HETSCALE_CHECK(promise.value.has_value(),
                   "awaited task finished without a value");
    return std::move(*promise.value);
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> handle) : handle_(handle) {}

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

/// Specialization for coroutines that produce no value.
template <>
class [[nodiscard]] Task<void> {
 public:
  struct promise_type : detail::PromiseBase {
    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    void return_void() noexcept {}
  };

  Task() = default;
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      destroy();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { destroy(); }

  bool valid() const { return static_cast<bool>(handle_); }
  bool done() const { return handle_ && handle_.done(); }

  std::coroutine_handle<promise_type> release() {
    return std::exchange(handle_, {});
  }

  bool await_ready() const noexcept { return !handle_ || handle_.done(); }
  bool await_suspend(std::coroutine_handle<> awaiter) {
    handle_.resume();
    if (handle_.done()) return false;
    handle_.promise().continuation = awaiter;
    return true;
  }
  void await_resume() {
    auto& promise = handle_.promise();
    if (promise.exception) std::rethrow_exception(promise.exception);
  }

 private:
  explicit Task(std::coroutine_handle<promise_type> handle) : handle_(handle) {}

  void destroy() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  std::coroutine_handle<promise_type> handle_;
};

}  // namespace hetscale::des
