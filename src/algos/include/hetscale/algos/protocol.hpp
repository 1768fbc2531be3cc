// The protocol every algorithm in algos/ opens with: process 0 is the root
// that holds the inputs, distributes them and collects the result, and the
// run starts with its broadcast of the problem's metadata. predict's
// overhead models price that broadcast from the same constant.
#pragma once

namespace hetscale::algos {

/// The rank that distributes the inputs and collects the result.
inline constexpr int kRoot = 0;

/// Modeled size of the metadata broadcast that opens every run (two 8-byte
/// words).
inline constexpr double kMetadataBytes = 16.0;

}  // namespace hetscale::algos
