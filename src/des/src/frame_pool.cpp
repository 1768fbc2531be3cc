#include "hetscale/des/frame_pool.hpp"

#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define HETSCALE_FRAME_POOL_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HETSCALE_FRAME_POOL_ASAN 1
#endif
#endif

#ifdef HETSCALE_FRAME_POOL_ASAN
#include <sanitizer/asan_interface.h>
#define HETSCALE_POISON(p, s) ASAN_POISON_MEMORY_REGION((p), (s))
#define HETSCALE_UNPOISON(p, s) ASAN_UNPOISON_MEMORY_REGION((p), (s))
#else
#define HETSCALE_POISON(p, s) ((void)0)
#define HETSCALE_UNPOISON(p, s) ((void)0)
#endif

namespace hetscale::des::detail {

namespace {

// Frames are rounded up to 64-byte slots; one freelist per slot count.
// Anything larger than 2 KiB (rare: deeply-inlined collectives) bypasses the
// pool. Bins are capped so a pathological burst cannot pin memory forever.
constexpr std::size_t kGranularity = 64;
constexpr std::size_t kBins = 32;
constexpr std::size_t kMaxPooledBytes = kGranularity * kBins;
constexpr std::size_t kMaxParkedPerBin = 1024;

struct FreeNode {
  FreeNode* next;
};

struct Bin {
  FreeNode* head = nullptr;
  std::size_t count = 0;
};

struct Pool {
  Bin bins[kBins];

  ~Pool() {
    for (Bin& bin : bins) {
      FreeNode* node = bin.head;
      while (node != nullptr) {
        HETSCALE_UNPOISON(node, sizeof(FreeNode));
        FreeNode* next = node->next;
        ::operator delete(node);
        node = next;
      }
      bin.head = nullptr;
      bin.count = 0;
    }
  }
};

thread_local Pool t_pool;

// Live-frame gauge: frames allocated and not yet freed on this thread. The
// high-water mark is what large-p memory regressions show up in — every
// concurrently-suspended actor coroutine holds at least one live frame.
thread_local std::size_t t_live = 0;
thread_local std::size_t t_live_peak = 0;

inline std::size_t bin_index(std::size_t size) {
  return (size - 1) / kGranularity;
}

}  // namespace

void* frame_alloc(std::size_t size) {
  if (size == 0) size = 1;
  if (++t_live > t_live_peak) t_live_peak = t_live;
  if (size > kMaxPooledBytes) return ::operator new(size);
  Bin& bin = t_pool.bins[bin_index(size)];
  if (bin.head != nullptr) {
    FreeNode* node = bin.head;
    HETSCALE_UNPOISON(node, (bin_index(size) + 1) * kGranularity);
    bin.head = node->next;
    --bin.count;
    return node;
  }
  // Allocate the full slot so any frame of this bin can reuse it.
  return ::operator new((bin_index(size) + 1) * kGranularity);
}

void frame_free(void* p, std::size_t size) noexcept {
  if (p == nullptr) return;
  if (t_live > 0) --t_live;
  if (size == 0) size = 1;
  if (size > kMaxPooledBytes) {
    ::operator delete(p);
    return;
  }
  Bin& bin = t_pool.bins[bin_index(size)];
  if (bin.count >= kMaxParkedPerBin) {
    ::operator delete(p);
    return;
  }
  auto* node = static_cast<FreeNode*>(p);
  node->next = bin.head;
  bin.head = node;
  ++bin.count;
  HETSCALE_POISON(node, (bin_index(size) + 1) * kGranularity);
}

std::size_t frame_pool_live_peak() { return t_live_peak; }

void frame_pool_reset_live_peak() { t_live_peak = t_live; }

}  // namespace hetscale::des::detail
