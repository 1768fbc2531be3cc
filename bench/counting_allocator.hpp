// A counting global allocator for the micro-benchmarks.
//
// Linking counting_allocator.cpp into a benchmark replaces the global
// operator new / delete binary-wide, so the benchmark can report
// allocations per simulated event or message — the quantity the slab
// queue and payload arena exist to eliminate. The replacement lives in its
// own translation unit: defined next to its callers, GCC 12 inlines the
// malloc-backed new into them and then reports every delete as a
// mismatched free (-Wmismatched-new-delete).
#pragma once

#include <cstdint>

namespace hetscale::bench {

/// Global operator new calls so far, on every thread.
std::uint64_t allocations();

}  // namespace hetscale::bench
