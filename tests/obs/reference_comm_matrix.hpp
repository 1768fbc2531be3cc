// Reference implementation of the communication matrix, kept for
// differential tests: cells in a std::map keyed by (src, dst, phase), so
// iteration is already canonical. Simple and slow; obs::CommMatrix must
// agree with it bit for bit — cells, counts and totals.
#pragma once

#include <cstdint>
#include <map>
#include <tuple>
#include <vector>

#include "hetscale/obs/comm_matrix.hpp"

namespace hetscale::obs::reference {

class CommMatrix {
 public:
  void record_send(int src, int dst, CommPhase phase, double bytes);
  void record_wait(int src, int dst, CommPhase phase, double wait_s);

  bool empty() const { return cells_.empty(); }
  std::size_t cell_count() const { return cells_.size(); }

  std::uint64_t total_messages() const;
  double total_bytes() const;
  double total_wait_s() const;

  std::vector<CommCell> cells() const;

  CommMatrix& operator+=(const CommMatrix& other);

 private:
  CommCell& cell(int src, int dst, CommPhase phase);

  std::map<std::tuple<int, int, int>, CommCell> cells_;
};

}  // namespace hetscale::obs::reference
