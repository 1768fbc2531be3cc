// A slab recycler for coroutine frames.
//
// Every simulated operation (a send, a recv, a collective step) is a Task
// coroutine, so the simulator's allocation rate is dominated by frame
// new/delete pairs of a handful of distinct sizes. Frames are recycled
// through thread-local size-binned freelists: each simulation partition runs
// on one thread (a machine spawns its ranks on their partition's thread), so
// no locks are needed and a frame always returns to the freelist it came
// from.
//
// Under AddressSanitizer the recycled blocks are poisoned while parked, so
// use-after-free of a completed coroutine frame still traps.
#pragma once

#include <cstddef>

namespace hetscale::des::detail {

/// Allocate storage for a coroutine frame of `size` bytes.
void* frame_alloc(std::size_t size);

/// Return a frame to the pool (sizes above the pooled range go straight back
/// to the heap).
void frame_free(void* p, std::size_t size) noexcept;

/// High-water mark, since the last reset, of the frames allocated and not
/// yet freed on this thread — one per suspended coroutine, roughly. Each
/// partition of Machine::run resets it at launch and reads its own peak.
std::size_t frame_pool_live_peak();

/// Restart the high-water mark at the current live count.
void frame_pool_reset_live_peak();

}  // namespace hetscale::des::detail
