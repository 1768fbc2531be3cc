#include "hetscale/vmpi/payload.hpp"

#include <algorithm>
#include <new>

#if defined(__SANITIZE_ADDRESS__)
#define HETSCALE_ARENA_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define HETSCALE_ARENA_ASAN 1
#endif
#endif

#ifdef HETSCALE_ARENA_ASAN
#include <sanitizer/asan_interface.h>
#define HETSCALE_POISON(p, s) ASAN_POISON_MEMORY_REGION((p), (s))
#define HETSCALE_UNPOISON(p, s) ASAN_UNPOISON_MEMORY_REGION((p), (s))
#else
#define HETSCALE_POISON(p, s) ((void)0)
#define HETSCALE_UNPOISON(p, s) ((void)0)
#endif

namespace hetscale::vmpi {

namespace detail {

namespace {

// Power-of-two size classes: class c holds blocks of 1 << c doubles. The
// largest pooled class is 1 << 21 doubles (16 MiB) — a bcast of a 1448x1448
// matrix still pools; anything bigger falls through to plain heap blocks
// tagged with the sentinel class.
constexpr std::uint32_t kClasses = 22;
constexpr std::uint32_t kHeapClass = 0xffffffffu;
constexpr std::size_t kMaxParkedPerClass = 64;

struct ClassList {
  BufferBlock* head = nullptr;
  std::size_t count = 0;
};

struct Arena {
  ClassList classes[kClasses];

  ~Arena() {
    for (ClassList& list : classes) {
      BufferBlock* block = list.head;
      while (block != nullptr) {
        HETSCALE_UNPOISON(block, sizeof(BufferBlock));
        BufferBlock* next = block->next_free;
        ::operator delete(block);
        block = next;
      }
      list.head = nullptr;
      list.count = 0;
    }
  }
};

thread_local Arena t_arena;

std::uint32_t class_for(std::size_t count) {
  std::uint32_t cls = 0;
  while ((std::size_t{1} << cls) < count) ++cls;
  return cls;
}

BufferBlock* raw_block(std::size_t capacity_doubles) {
  void* mem = ::operator new(sizeof(BufferBlock) +
                             capacity_doubles * sizeof(double));
  return new (mem) BufferBlock{};
}

}  // namespace

BufferBlock* arena_acquire(std::size_t count) {
  const std::uint32_t cls = count == 0 ? 0 : class_for(count);
  if (cls >= kClasses) {
    BufferBlock* block = raw_block(count);
    block->size_class = kHeapClass;
    block->count = count;
    return block;
  }
  ClassList& list = t_arena.classes[cls];
  if (list.head != nullptr) {
    BufferBlock* block = list.head;
    HETSCALE_UNPOISON(
        block, sizeof(BufferBlock) + (std::size_t{1} << cls) * sizeof(double));
    list.head = block->next_free;
    --list.count;
    block->next_free = nullptr;
    block->count = count;
    return block;
  }
  BufferBlock* block = raw_block(std::size_t{1} << cls);
  block->size_class = cls;
  block->count = count;
  return block;
}

void arena_release(BufferBlock* block) noexcept {
  if (block == nullptr) return;
  const std::uint32_t cls = block->size_class;
  if (cls == kHeapClass) {
    ::operator delete(block);
    return;
  }
  ClassList& list = t_arena.classes[cls];
  if (list.count >= kMaxParkedPerClass) {
    ::operator delete(block);
    return;
  }
  block->next_free = list.head;
  list.head = block;
  ++list.count;
  HETSCALE_POISON(block,
                  sizeof(BufferBlock) + (std::size_t{1} << cls) * sizeof(double));
}

std::size_t arena_parked() {
  std::size_t total = 0;
  for (const ClassList& list : t_arena.classes) total += list.count;
  return total;
}

/// One pooled bundle block. Reuse keeps the parts vector's capacity, so a
/// steady-state gather tree allocates nothing once warm.
struct BundleBlock {
  std::uint32_t refs = 0;
  BundleBlock* next_free = nullptr;
  std::vector<BundlePart> parts;
};

namespace {

constexpr std::size_t kMaxParkedBundles = 64;

struct BundlePool {
  BundleBlock* head = nullptr;
  std::size_t count = 0;

  ~BundlePool() {
    while (head != nullptr) {
      BundleBlock* next = head->next_free;
      delete head;
      head = next;
    }
    count = 0;
  }
};

thread_local BundlePool t_bundles;

}  // namespace

BundleBlock* bundle_acquire() {
  BundlePool& pool = t_bundles;
  if (pool.head != nullptr) {
    BundleBlock* block = pool.head;
    pool.head = block->next_free;
    --pool.count;
    block->next_free = nullptr;
    block->refs = 1;
    return block;
  }
  BundleBlock* block = new BundleBlock;
  block->refs = 1;
  return block;
}

void bundle_add_ref(BundleBlock* block) noexcept { ++block->refs; }

void bundle_unref(BundleBlock* block) noexcept {
  if (--block->refs != 0) return;
  block->parts.clear();  // releases nested payload blocks on this thread
  BundlePool& pool = t_bundles;
  if (pool.count >= kMaxParkedBundles) {
    delete block;
    return;
  }
  block->next_free = pool.head;
  pool.head = block;
  ++pool.count;
}

std::size_t bundle_parked() { return t_bundles.count; }

}  // namespace detail

Payload Payload::copy_of(std::span<const double> values) {
  Payload p = buffer(values.size());
  std::copy(values.begin(), values.end(), p.block_->data());
  return p;
}

Payload Payload::make_bundle() {
  Payload p;
  p.kind_ = Kind::kBundle;
  p.bundle_ = detail::bundle_acquire();
  return p;
}

std::vector<BundlePart>& Payload::bundle_parts() {
  HETSCALE_REQUIRE(kind_ == Kind::kBundle, "payload holds no bundle");
  return bundle_->parts;
}

const std::vector<BundlePart>& Payload::bundle_parts() const {
  HETSCALE_REQUIRE(kind_ == Kind::kBundle, "payload holds no bundle");
  return bundle_->parts;
}

void Payload::detach_for_transfer() {
  switch (kind_) {
    case Kind::kEmpty:
    case Kind::kScalar:
      return;
    case Kind::kBuffer: {
      if (block_->refs == 1) return;
      detail::BufferBlock* fresh = detail::arena_acquire(block_->count);
      fresh->refs = 1;
      std::copy_n(block_->data(), block_->count, fresh->data());
      --block_->refs;  // still on the owning thread: plain decrement is safe
      block_ = fresh;
      return;
    }
    case Kind::kBundle: {
      if (bundle_->refs > 1) {
        detail::BundleBlock* fresh = detail::bundle_acquire();
        fresh->parts = bundle_->parts;  // copies bump nested refs locally
        --bundle_->refs;
        bundle_ = fresh;
      }
      for (BundlePart& part : bundle_->parts) {
        part.payload.detach_for_transfer();
      }
      return;
    }
  }
}

}  // namespace hetscale::vmpi
