#include "hetscale/obs/comm_matrix.hpp"

#include <algorithm>
#include <iterator>
#include <tuple>

#include "hetscale/support/error.hpp"

namespace hetscale::obs {

const std::string& comm_phase_name(CommPhase phase) {
  static const std::string kNames[] = {
      "p2p",    "bcast",     "bcast.scatter", "bcast.ring",  "barrier",
      "gather", "allgather", "alltoall",      "group.bcast", "bcast.doubling",
  };
  const int index = static_cast<int>(phase);
  HETSCALE_REQUIRE(index >= 0 &&
                       index < static_cast<int>(std::size(kNames)),
                   "unknown comm phase");
  return kNames[index];
}

namespace {

constexpr int kRankLimit = 1 << 28;
constexpr int kPhaseLimit = 1 << 8;

bool in_rank_range(int rank) { return rank >= 0 && rank < kRankLimit; }

/// Canonical cell order: (src, dst, phase); keys are unique per matrix.
bool key_less(const CommCell& a, const CommCell& b) {
  return std::tie(a.src, a.dst, a.phase) < std::tie(b.src, b.dst, b.phase);
}

}  // namespace

CommCell& CommMatrix::cell(int src, int dst, CommPhase phase) {
  const int p = static_cast<int>(phase);
  HETSCALE_REQUIRE(in_rank_range(src) && in_rank_range(dst),
                   "comm matrix rank out of range");
  HETSCALE_REQUIRE(p >= 0 && p < kPhaseLimit, "unknown comm phase");
  // 28 + 28 + 8 bits: an exact key, so distinct cells never alias.
  const std::uint64_t key = (static_cast<std::uint64_t>(src) << 36) |
                            (static_cast<std::uint64_t>(dst) << 8) |
                            static_cast<std::uint64_t>(p);
  const auto [c, inserted] = cells_.try_emplace(key);
  if (inserted) *c = CommCell{src, dst, p};
  return *c;
}

void CommMatrix::record_send(int src, int dst, CommPhase phase,
                             double bytes) {
  HETSCALE_DCHECK(bytes >= 0.0, "message bytes must be non-negative");
  CommCell& c = cell(src, dst, phase);
  ++c.messages;
  c.bytes += bytes;
}

void CommMatrix::record_wait(int src, int dst, CommPhase phase,
                             double wait_s) {
  HETSCALE_DCHECK(wait_s >= 0.0, "wait time must be non-negative");
  cell(src, dst, phase).wait_s += wait_s;
}

std::uint64_t CommMatrix::total_messages() const {
  std::uint64_t total = 0;
  cells_.for_each([&total](const CommCell& c) { total += c.messages; });
  return total;
}

double CommMatrix::total_bytes() const {
  double total = 0.0;
  for (const CommCell& c : cells()) total += c.bytes;
  return total;
}

double CommMatrix::total_wait_s() const {
  double total = 0.0;
  for (const CommCell& c : cells()) total += c.wait_s;
  return total;
}

std::vector<CommCell> CommMatrix::cells() const {
  std::vector<CommCell> out;
  out.reserve(cells_.size());
  cells_.for_each([&out](const CommCell& c) { out.push_back(c); });
  std::sort(out.begin(), out.end(), key_less);
  return out;
}

CommMatrix& CommMatrix::operator+=(const CommMatrix& other) {
  // Each cell of `other` lands in a distinct cell here, so the visiting
  // order cannot change any sum.
  other.cells_.for_each([this](const CommCell& c) {
    CommCell& mine = cell(c.src, c.dst, static_cast<CommPhase>(c.phase));
    mine.messages += c.messages;
    mine.bytes += c.bytes;
    mine.wait_s += c.wait_s;
  });
  return *this;
}

}  // namespace hetscale::obs
