// Payload — the message-plane value type of the virtual MPI runtime: a
// small tagged value, so a buffer hop costs a non-atomic refcount bump
// rather than heap allocations. Its kinds:
//
//   * empty        — timing-only traffic (the common case in sweeps);
//   * scalar       — one double, stored inline (rhs values, pivot picks);
//   * buffer       — a pooled, refcounted block of doubles with span views;
//   * bundle       — a pooled, refcounted vector of per-rank slices (what
//                    the binomial gather tree ships up).
//
// Buffer and bundle blocks come from thread-local pools (the arena): a
// simulation partition runs entirely on one OS thread, so blocks recycle
// without locks or atomics, copies are a non-atomic refcount bump, and
// steady-state message traffic allocates nothing. Blocks must never be
// *shared* across threads; a partitioned run (Machine with --sim-threads
// > 1) calls detach_for_transfer() on every payload that crosses a
// partition boundary so the receiving thread gets sole ownership. Frees may
// then land on a different thread than the allocation — that is safe (the
// block simply parks on the freeing thread's freelist).
//
// Virtual time and real data stay decoupled (DESIGN.md §6.1): the modeled
// byte count of a message is independent of what its Payload holds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hetscale/support/error.hpp"

namespace hetscale::vmpi {

namespace detail {

/// Header of one pooled buffer block; the doubles follow in the same
/// allocation. `size_class` indexes the arena freelist the block returns to.
struct BufferBlock {
  std::uint32_t refs = 0;
  std::uint32_t size_class = 0;
  std::size_t count = 0;  ///< doubles in use
  BufferBlock* next_free = nullptr;
  double* data() {
    return reinterpret_cast<double*>(reinterpret_cast<char*>(this) +
                                     sizeof(BufferBlock));
  }
  const double* data() const {
    return reinterpret_cast<const double*>(
        reinterpret_cast<const char*>(this) + sizeof(BufferBlock));
  }
};

BufferBlock* arena_acquire(std::size_t count);
void arena_release(BufferBlock* block) noexcept;

/// Header of one pooled bundle block (defined in payload.cpp; it embeds a
/// std::vector<BundlePart>, which needs the complete Payload type).
struct BundleBlock;

BundleBlock* bundle_acquire();
void bundle_add_ref(BundleBlock* block) noexcept;
void bundle_unref(BundleBlock* block) noexcept;

/// Statistics for benchmarks: blocks currently parked on this thread's
/// freelists.
std::size_t arena_parked();
std::size_t bundle_parked();

}  // namespace hetscale::vmpi::detail

struct BundlePart;

class Payload {
 public:
  Payload() noexcept = default;

  /// Scalars are stored inline — no allocation.
  Payload(double scalar) noexcept  // NOLINT(google-explicit-constructor)
      : kind_(Kind::kScalar) {
    scalar_ = scalar;
  }

  /// An uninitialized pooled buffer of `count` doubles.
  static Payload buffer(std::size_t count) {
    Payload p;
    p.kind_ = Kind::kBuffer;
    p.block_ = detail::arena_acquire(count);
    p.block_->refs = 1;
    return p;
  }

  /// A pooled buffer initialized from `values`.
  static Payload copy_of(std::span<const double> values);

  /// An empty pooled bundle — append BundleParts via bundle_parts(). This is
  /// the native carrier for the binomial gather: a parent ships its whole
  /// subtree as one message with no per-hop allocation once the pools are
  /// warm.
  static Payload make_bundle();

  Payload(const Payload& other) { copy_from(other); }
  Payload& operator=(const Payload& other) {
    if (this != &other) {
      reset();
      copy_from(other);
    }
    return *this;
  }
  Payload(Payload&& other) noexcept { steal_from(other); }
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      reset();
      steal_from(other);
    }
    return *this;
  }
  ~Payload() { reset(); }

  bool empty() const noexcept { return kind_ == Kind::kEmpty; }
  bool is_scalar() const noexcept { return kind_ == Kind::kScalar; }
  bool is_buffer() const noexcept { return kind_ == Kind::kBuffer; }
  bool is_bundle() const noexcept { return kind_ == Kind::kBundle; }

  /// The inline double (requires is_scalar()).
  double scalar() const {
    HETSCALE_REQUIRE(kind_ == Kind::kScalar, "payload holds no scalar");
    return scalar_;
  }

  /// Mutable view of the pooled buffer. An empty payload views as a
  /// zero-length buffer (zero-row blocks are ordinary traffic); scalars and
  /// bundles refuse.
  std::span<double> doubles() {
    if (kind_ == Kind::kEmpty) return {};
    HETSCALE_REQUIRE(kind_ == Kind::kBuffer, "payload holds no buffer");
    return {block_->data(), block_->count};
  }

  /// Read-only view of the pooled buffer (empty payloads view as length 0).
  std::span<const double> doubles() const {
    if (kind_ == Kind::kEmpty) return {};
    HETSCALE_REQUIRE(kind_ == Kind::kBuffer, "payload holds no buffer");
    return {block_->data(), block_->count};
  }

  /// Buffer length (0 unless is_buffer()).
  std::size_t size() const noexcept {
    return kind_ == Kind::kBuffer ? block_->count : 0;
  }

  /// The bundle's parts (requires is_bundle()). Mutable access is how
  /// collectives build and unpack trees; the vector lives in the pooled
  /// block, so growth amortizes across reuses.
  std::vector<BundlePart>& bundle_parts();
  const std::vector<BundlePart>& bundle_parts() const;

  /// Make every block reachable from this payload uniquely owned by the
  /// caller, deep-copying any block whose refcount is shared (recursing into
  /// bundles). The partitioned Machine calls this on messages that cross a
  /// partition boundary: afterwards the receiving thread can copy/free the
  /// payload without ever touching a refcount another thread can see.
  void detach_for_transfer();

 private:
  enum class Kind : std::uint8_t { kEmpty, kScalar, kBuffer, kBundle };

  void copy_from(const Payload& other) {
    kind_ = other.kind_;
    switch (kind_) {
      case Kind::kEmpty:
        break;
      case Kind::kScalar:
        scalar_ = other.scalar_;
        break;
      case Kind::kBuffer:
        block_ = other.block_;
        ++block_->refs;  // non-atomic: blocks never shared across threads
        break;
      case Kind::kBundle:
        bundle_ = other.bundle_;
        detail::bundle_add_ref(bundle_);
        break;
    }
  }

  void steal_from(Payload& other) noexcept {
    kind_ = other.kind_;
    switch (kind_) {
      case Kind::kEmpty:
        break;
      case Kind::kScalar:
        scalar_ = other.scalar_;
        break;
      case Kind::kBuffer:
        block_ = other.block_;
        break;
      case Kind::kBundle:
        bundle_ = other.bundle_;
        break;
    }
    other.kind_ = Kind::kEmpty;
  }

  void reset() noexcept {
    if (kind_ == Kind::kBuffer) {
      if (--block_->refs == 0) detail::arena_release(block_);
    } else if (kind_ == Kind::kBundle) {
      detail::bundle_unref(bundle_);
    }
    kind_ = Kind::kEmpty;
  }

  Kind kind_ = Kind::kEmpty;
  union {
    double scalar_;
    detail::BufferBlock* block_;
    detail::BundleBlock* bundle_;
  };
};

/// One rank's slice riding inside a bundle payload: the binomial gather
/// tree accumulates these on the way up. The modeled `bytes` travel with
/// the slice so intermediate hops can charge the network for exactly the
/// data they forward.
struct BundlePart {
  int rank = 0;
  double bytes = 0.0;
  Payload payload;
};

}  // namespace hetscale::vmpi
