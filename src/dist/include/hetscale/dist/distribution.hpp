// Data distributions over heterogeneous processors.
//
// The paper's algorithms distribute rows "proportionally ... according to
// their marked speeds": GE uses the row-based *heterogeneous cyclic*
// distribution of Kalinov & Lastovetsky [6] (so each process's share of the
// remaining rows stays proportional to its speed at every elimination
// stage), and MM uses a row-based *heterogeneous block* distribution (HoHe).
// The homogeneous block split is the equal-speed case of the latter.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace hetscale::dist {

/// Heterogeneous block distribution: split n items into p contiguous blocks
/// with block i sized as close to n * speeds[i] / Σspeeds as integers allow
/// (largest-remainder rounding; ties go to the lower rank). Returns the p
/// block sizes; they sum to n exactly.
std::vector<std::int64_t> het_block_counts(std::span<const double> speeds,
                                           std::int64_t n);

/// Prefix offsets of a block distribution: offsets[i] is the first item of
/// block i; offsets[p] == n.
std::vector<std::int64_t> block_offsets(std::span<const std::int64_t> counts);

/// Heterogeneous cyclic distribution: owner[j] for each of the n items, with
/// items dealt one at a time to the processor that keeps assigned counts
/// proportional to speed (greedy proportional interleaving). Every prefix of
/// the deal is near-proportional — the property GE needs.
std::vector<int> het_cyclic_owners(std::span<const double> speeds,
                                   std::int64_t n);

/// Homogeneous block distribution of n items over p processors.
std::vector<std::int64_t> block_counts(int p, std::int64_t n);

/// Load-balance quality of an assignment: (max_i count_i / speed_i) * C / n,
/// which is the ratio of the slowest processor's finish time to the ideal
/// perfectly proportional time. 1.0 is perfect; always >= 1 for n > 0.
double imbalance(std::span<const double> speeds,
                 std::span<const std::int64_t> counts);

}  // namespace hetscale::dist
