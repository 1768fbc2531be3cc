#include "counting_allocator.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
// Relaxed: workers allocate concurrently in the ladder benchmark, and the
// order of the increments is irrelevant.
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hetscale::bench {

std::uint64_t allocations() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

}  // namespace hetscale::bench
