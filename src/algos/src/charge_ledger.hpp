// Internal: per-rank flop-charge ledger.
//
// Every algorithm keeps a running total of the flops it charged to
// comm.compute() so tests can pin charged == modeled work. Rank coroutines
// may execute on different partition threads (--sim-threads > 1), so a
// single shared accumulator would race — and even an atomic one would sum
// in thread-timing order. Each rank therefore owns a slot, and the total
// folds the slots in rank order: one deterministic value at any thread
// count. The fold is also bit-equal to the old temporal-order sum for
// every algorithm whose charges are integer-valued flop counts (all of
// them well below 2^53), since integer doubles add exactly in any order.
#pragma once

#include <cstddef>
#include <vector>

#include "hetscale/des/task.hpp"
#include "hetscale/vmpi/comm.hpp"

namespace hetscale::algos {

class ChargeLedger {
 public:
  /// Size the ledger for `ranks` slots, all zero. Call before the run.
  void reset(int ranks) {
    slots_.assign(static_cast<std::size_t>(ranks), 0.0);
  }

  /// Charge `flops` to `comm`'s rank and return the compute that advances
  /// its clock by them (Comm::compute at `efficiency`). Safe from the
  /// rank's own thread only.
  des::Task<void> charge(vmpi::Comm& comm, double flops,
                         double efficiency = 1.0) {
    slots_[static_cast<std::size_t>(comm.rank())] += flops;
    return comm.compute(flops, efficiency);
  }

  /// Fold the slots in rank order. Call after the run.
  double total() const {
    double sum = 0.0;
    for (double slot : slots_) sum += slot;
    return sum;
  }

 private:
  std::vector<double> slots_;
};

}  // namespace hetscale::algos
