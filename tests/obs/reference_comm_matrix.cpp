#include "reference_comm_matrix.hpp"

namespace hetscale::obs::reference {

CommCell& CommMatrix::cell(int src, int dst, CommPhase phase) {
  const auto key = std::make_tuple(src, dst, static_cast<int>(phase));
  auto [it, inserted] = cells_.try_emplace(key);
  if (inserted) {
    it->second.src = src;
    it->second.dst = dst;
    it->second.phase = static_cast<int>(phase);
  }
  return it->second;
}

void CommMatrix::record_send(int src, int dst, CommPhase phase,
                             double bytes) {
  CommCell& c = cell(src, dst, phase);
  ++c.messages;
  c.bytes += bytes;
}

void CommMatrix::record_wait(int src, int dst, CommPhase phase,
                             double wait_s) {
  cell(src, dst, phase).wait_s += wait_s;
}

std::uint64_t CommMatrix::total_messages() const {
  std::uint64_t total = 0;
  for (const auto& [key, c] : cells_) total += c.messages;
  return total;
}

double CommMatrix::total_bytes() const {
  double total = 0.0;
  for (const auto& [key, c] : cells_) total += c.bytes;
  return total;
}

double CommMatrix::total_wait_s() const {
  double total = 0.0;
  for (const auto& [key, c] : cells_) total += c.wait_s;
  return total;
}

std::vector<CommCell> CommMatrix::cells() const {
  std::vector<CommCell> out;
  out.reserve(cells_.size());
  for (const auto& [key, c] : cells_) out.push_back(c);
  return out;
}

CommMatrix& CommMatrix::operator+=(const CommMatrix& other) {
  for (const auto& [key, c] : other.cells_) {
    CommCell& mine = cell(c.src, c.dst, static_cast<CommPhase>(c.phase));
    mine.messages += c.messages;
    mine.bytes += c.bytes;
    mine.wait_s += c.wait_s;
  }
  return *this;
}

}  // namespace hetscale::obs::reference
