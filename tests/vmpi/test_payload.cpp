// Payload and arena unit tests: tagged-union semantics, refcounted buffer
// sharing, and block recycling through the thread-local pool.
#include "hetscale/vmpi/payload.hpp"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

namespace hetscale::vmpi {
namespace {

TEST(Payload, DefaultIsEmpty) {
  Payload p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.size(), 0u);
  // Empty payloads view as zero-length buffers: zero-row blocks are
  // ordinary traffic for ranks that own no rows.
  EXPECT_TRUE(p.doubles().empty());
}

TEST(Payload, ScalarStoredInline) {
  Payload p(2.5);
  EXPECT_TRUE(p.is_scalar());
  EXPECT_DOUBLE_EQ(p.scalar(), 2.5);
  Payload copy = p;
  EXPECT_DOUBLE_EQ(copy.scalar(), 2.5);
}

TEST(Payload, BufferRoundTripsValues) {
  const std::vector<double> values{1.0, 2.0, 3.0, 4.0};
  Payload p = Payload::copy_of(values);
  ASSERT_TRUE(p.is_buffer());
  ASSERT_EQ(p.size(), values.size());
  const auto view = std::as_const(p).doubles();
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_DOUBLE_EQ(view[i], values[i]);
  }
}

TEST(Payload, BufferCopiesShareTheBlock) {
  Payload a = Payload::buffer(8);
  a.doubles()[0] = 1.0;
  Payload b = a;  // refcount bump, same block
  b.doubles()[0] = 42.0;
  EXPECT_DOUBLE_EQ(a.doubles()[0], 42.0)
      << "copies must alias the same pooled block";
  EXPECT_EQ(a.doubles().data(), b.doubles().data());
}

TEST(Payload, MoveTransfersOwnership) {
  Payload a = Payload::copy_of(std::vector<double>{7.0});
  const double* data = a.doubles().data();
  Payload b = std::move(a);
  EXPECT_TRUE(a.empty());
  ASSERT_TRUE(b.is_buffer());
  EXPECT_EQ(b.doubles().data(), data) << "move must not copy the block";
  EXPECT_DOUBLE_EQ(b.doubles()[0], 7.0);
}

TEST(Payload, MoveAssignReleasesPreviousValue) {
  Payload a = Payload::copy_of(std::vector<double>{1.0, 2.0});
  Payload b = Payload::copy_of(std::vector<double>{3.0});
  b = std::move(a);
  ASSERT_EQ(b.size(), 2u);
  EXPECT_DOUBLE_EQ(b.doubles()[1], 2.0);
  EXPECT_TRUE(a.empty());
}

TEST(Payload, ScalarOnNonScalarThrows) {
  EXPECT_THROW(Payload().scalar(), PreconditionError);
  EXPECT_THROW(Payload::buffer(1).scalar(), PreconditionError);
}

TEST(Arena, BlocksRecycleThroughTheFreelist) {
  // Warm the size class, note the block's address, release, reacquire:
  // steady-state traffic must reuse the parked slab.
  const double* first;
  {
    Payload p = Payload::buffer(64);
    first = p.doubles().data();
  }
  const std::size_t parked = detail::arena_parked();
  EXPECT_GE(parked, 1u);
  {
    Payload p = Payload::buffer(64);
    EXPECT_EQ(p.doubles().data(), first)
        << "same-size reacquire must reuse the freed block";
    EXPECT_EQ(detail::arena_parked(), parked - 1);
  }
  EXPECT_EQ(detail::arena_parked(), parked);
}

TEST(Arena, SharedBlockFreesOnlyOnLastRelease) {
  const std::size_t baseline = detail::arena_parked();
  Payload a = Payload::buffer(16);
  {
    Payload b = a;
    Payload c = b;
    EXPECT_EQ(detail::arena_parked(), baseline);
  }  // b and c die: block still owned by a
  EXPECT_EQ(detail::arena_parked(), baseline);
  a = Payload();  // last owner: block returns to the pool
  EXPECT_EQ(detail::arena_parked(), baseline + 1);
}

TEST(Arena, CopyOfCountZeroIsAValidBuffer) {
  Payload p = Payload::copy_of({});
  EXPECT_TRUE(p.is_buffer());
  EXPECT_EQ(p.size(), 0u);
  EXPECT_TRUE(p.doubles().empty());
}

TEST(Bundle, PartsRoundTrip) {
  Payload bundle = Payload::make_bundle();
  EXPECT_TRUE(bundle.is_bundle());
  bundle.bundle_parts().push_back(BundlePart{3, 24.0, Payload(1.5)});
  const std::vector<double> pair{2.0, 4.0};
  bundle.bundle_parts().push_back(BundlePart{7, 16.0, Payload::copy_of(pair)});
  ASSERT_EQ(bundle.bundle_parts().size(), 2u);
  EXPECT_EQ(bundle.bundle_parts()[0].rank, 3);
  EXPECT_EQ(bundle.bundle_parts()[0].payload.scalar(), 1.5);
  EXPECT_EQ(bundle.bundle_parts()[1].bytes, 16.0);
  EXPECT_EQ(bundle.bundle_parts()[1].payload.doubles()[1], 4.0);
}

TEST(Bundle, CopiesShareTheBlock) {
  Payload a = Payload::make_bundle();
  a.bundle_parts().push_back(BundlePart{0, 8.0, Payload(9.0)});
  Payload b = a;  // refcounted share, not a deep copy
  ASSERT_TRUE(b.is_bundle());
  EXPECT_EQ(&a.bundle_parts(), &b.bundle_parts());
  a = Payload();  // releasing a's reference must not free the block
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(b.bundle_parts().size(), 1u);  // b keeps the block alive
}

TEST(Bundle, BlocksRecycleThroughThePool) {
  std::size_t live_baseline = 0;
  {
    Payload bundle = Payload::make_bundle();
    bundle.bundle_parts().push_back(BundlePart{0, 8.0, Payload(1.0)});
    live_baseline = detail::bundle_parked();  // this block is checked out
  }
  // The released block parked instead of being freed...
  ASSERT_EQ(detail::bundle_parked(), live_baseline + 1);
  Payload again = Payload::make_bundle();  // ...and the next acquire pops it
  EXPECT_EQ(detail::bundle_parked(), live_baseline);
  EXPECT_TRUE(again.bundle_parts().empty());  // recycled blocks come clean
}

TEST(DetachForTransfer, UniqueOwnerIsUntouched) {
  const std::vector<double> data{1.0, 2.0};
  Payload p = Payload::copy_of(data);
  const double* before = p.doubles().data();
  p.detach_for_transfer();
  EXPECT_EQ(p.doubles().data(), before);  // sole owner: no copy needed
}

TEST(DetachForTransfer, SharedBufferDeepCopies) {
  const std::vector<double> data{1.0, 2.0, 3.0};
  Payload a = Payload::copy_of(data);
  Payload b = a;
  b.detach_for_transfer();
  ASSERT_TRUE(b.is_buffer());
  EXPECT_NE(a.doubles().data(), b.doubles().data());
  EXPECT_EQ(b.doubles()[2], 3.0);
  a.doubles()[2] = -1.0;  // writes through a no longer alias b
  EXPECT_EQ(b.doubles()[2], 3.0);
}

TEST(DetachForTransfer, SharedBundleDeepCopiesRecursively) {
  Payload a = Payload::make_bundle();
  const std::vector<double> five{5.0};
  a.bundle_parts().push_back(BundlePart{0, 8.0, Payload::copy_of(five)});
  Payload b = a;
  b.detach_for_transfer();
  ASSERT_TRUE(b.is_bundle());
  EXPECT_NE(&a.bundle_parts(), &b.bundle_parts());
  // The nested buffer detached too: no block is shared across the copy.
  EXPECT_NE(a.bundle_parts()[0].payload.doubles().data(),
            b.bundle_parts()[0].payload.doubles().data());
  EXPECT_EQ(b.bundle_parts()[0].payload.doubles()[0], 5.0);
}

TEST(DetachForTransfer, ScalarAndEmptyAreNoOps) {
  Payload empty;
  empty.detach_for_transfer();
  EXPECT_TRUE(empty.empty());
  Payload scalar(4.0);
  scalar.detach_for_transfer();
  EXPECT_EQ(scalar.scalar(), 4.0);
}

}  // namespace
}  // namespace hetscale::vmpi
