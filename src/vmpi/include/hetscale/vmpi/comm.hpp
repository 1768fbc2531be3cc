// Comm — the per-rank communication handle of the virtual-time MPI runtime.
//
// Programming model (mirrors the MPI subset the paper's algorithms use):
//   * one rank per processor (HoHe: process count == processor count),
//   * blocking send / recv with tags and source wildcards,
//   * collectives (bcast, barrier, gather, scatter, reduce) built from
//     point-to-point messages, so their cost comes from the network model.
//
// Timing semantics:
//   * compute(flops) advances this rank's virtual time by flops / rate;
//   * send blocks until the network says the sender is free;
//   * recv completes at max(time recv was called, message arrival).
// With source-specific receives (all algorithms here) these semantics are
// exact. With kAnySource, matching is post-order and completion may be
// conservatively late if a later-posted message would have arrived earlier.
#pragma once

#include <vector>

#include "hetscale/des/task.hpp"
#include "hetscale/net/network.hpp"
#include "hetscale/obs/comm_matrix.hpp"
#include "hetscale/vmpi/message.hpp"

namespace hetscale::vmpi {

class Machine;
class TraceRecorder;

class Comm {
 public:
  Comm(Machine& machine, int rank, int size)
      : machine_(&machine), rank_(rank), size_(size) {}

  /// Bind the scheduler this rank's time flows through: Machine::run wires
  /// each rank to its partition's scheduler.
  void bind_scheduler(des::Scheduler* scheduler) { sched_ = scheduler; }

  int rank() const { return rank_; }
  int size() const { return size_; }

  /// Current virtual time.
  des::SimTime now() const;

  /// Delivered compute rate of this rank's processor (flop/s).
  double rate_flops() const;

  /// Advance virtual time by flops / (rate_flops() * efficiency). The *real*
  /// arithmetic, if any, is done inline by the caller; this charges its cost.
  /// `efficiency` models kernels that sustain more or less than the node's
  /// nominal dense-kernel rate (used by the marked-speed suite).
  des::Task<void> compute(double flops, double efficiency = 1.0);

  /// Blocking send of a message of modeled size `bytes` carrying `payload`.
  des::Task<void> send(int dst, int tag, double bytes, Payload payload);

  /// Handle of a nonblocking send.
  struct SendRequest {
    des::SimTime sender_free = 0.0;  ///< when the sending link is drained
  };

  /// Nonblocking send: the message is injected (the network reserves the
  /// link as usual, so later sends queue behind it) but the caller
  /// continues immediately — computation/communication overlap. Optionally
  /// await wait_send() to synchronize with the link drain (MPI_Wait-like);
  /// fire-and-forget is also valid.
  SendRequest isend(int dst, int tag, double bytes, Payload payload);

  /// Suspend until the nonblocking send's link time has passed.
  des::Task<void> wait_send(const SendRequest& request);

  /// Blocking receive matching (source, tag); wildcards kAnySource/kAnyTag.
  des::Task<Message> recv(int source, int tag);

  // ---- Collectives (see file comment) ----

  /// Root's payload of modeled size `bytes` is delivered to every rank.
  /// The algorithm is the machine's CollectiveTuning choice: short messages
  /// use a binomial tree by default (Θ(log p)) or the paper-era flat tree
  /// under the legacy pin (linear in p, like the measured T_bcast ≈
  /// const·p); messages at or above the machine's large_bcast_threshold use
  /// a scatter+allgather long-message algorithm (van de Geijn scatter+ring
  /// under the legacy pin, binomial scatter + doubling allgather by
  /// default), whose cost is ~2·bytes/B — essential to reproduce MM's
  /// behaviour (DESIGN.md §6).
  des::Task<Payload> bcast(int root, double bytes, Payload payload);

  /// All ranks synchronize. Tuning-selected: flat all-to-root tokens plus a
  /// root release (legacy), a binomial combining tree with binomial release
  /// (default), or a dissemination barrier.
  des::Task<void> barrier();

  /// Every rank contributes (`bytes`, `payload`); the root returns the
  /// vector indexed by rank, other ranks return an empty vector.
  /// Tuning-selected: direct sends to the root (legacy) or subtree bundles
  /// up a binomial tree (default, Θ(log p) rounds).
  des::Task<std::vector<Payload>> gather(int root, double bytes,
                                          Payload payload);

  /// The root distributes parts[r] (modeled size parts_bytes[r]) to rank r;
  /// every rank returns its own part. Tuning-selected: direct sends from
  /// the root (legacy) or subtree bundles down a binomial tree (default).
  des::Task<Payload> scatter(int root, const std::vector<double>& parts_bytes,
                              std::vector<Payload> parts);

  /// Every rank contributes (`bytes`, `payload`); every rank returns the
  /// full vector indexed by rank. Ring algorithm: p-1 rounds of concurrent
  /// neighbour exchanges.
  des::Task<std::vector<Payload>> allgather(double bytes, Payload payload);

  /// Personalized all-to-all: rank r contributes parts[d] for every
  /// destination d (modeled size parts_bytes[d]) and returns the vector of
  /// parts addressed to it, indexed by source. Shifted-pairwise schedule:
  /// p-1 rounds, in round k rank r sends to r+k and receives from r-k.
  des::Task<std::vector<Payload>> alltoall(
      const std::vector<double>& parts_bytes, std::vector<Payload> parts);

  /// Reduction operators over doubles.
  enum class ReduceOp { kSum, kMin, kMax, kProd };

  /// Reduction of a double to the root (others get 0.0). Tuning-selected:
  /// gather p scalars to the root and fold there (legacy — the root
  /// materializes a vector of p payloads), or fold partial results up a
  /// binomial combining tree (default — Θ(log p), O(1) state per rank).
  des::Task<double> reduce(int root, double value, ReduceOp op);

  /// Sum-reduction of a double to the root (others get 0.0).
  des::Task<double> reduce_sum(int root, double value);

  /// Reduction delivered to every rank. Tuning-selected: reduce to rank 0
  /// then broadcast (legacy — two full trips), or a recursive-doubling
  /// butterfly (default — the value lands everywhere in Θ(log p) rounds,
  /// bit-identical across ranks by fixed combine association).
  des::Task<double> allreduce(double value, ReduceOp op);

  /// Sum-reduction delivered to every rank.
  des::Task<double> allreduce_sum(double value);

  /// The machine's trace recorder (null when tracing is off). Group uses
  /// this to annotate its collectives' lanes on the CommMatrix.
  TraceRecorder* tracer() const;

  /// The CommMatrix phase a world-communicator tag implies: the fixed
  /// collective tags map to their phase, everything else is p2p. Group
  /// collectives ride on caller-chosen tags and override per lane instead.
  static obs::CommPhase phase_for_tag(int tag);

 private:
  static constexpr int kTagBcast = 1 << 28;
  static constexpr int kTagBarrierIn = (1 << 28) + 1;
  static constexpr int kTagBarrierOut = (1 << 28) + 2;
  static constexpr int kTagGather = (1 << 28) + 3;
  static constexpr int kTagScatter = (1 << 28) + 4;
  static constexpr int kTagBcastScatter = (1 << 28) + 5;
  static constexpr int kTagBcastRing = (1 << 28) + 6;
  static constexpr int kTagAllgather = (1 << 28) + 7;
  static constexpr int kTagAlltoall = (1 << 28) + 8;
  static constexpr int kTagBarrierDissem = (1 << 28) + 9;
  static constexpr int kTagReduce = (1 << 28) + 10;
  static constexpr int kTagAllreduce = (1 << 28) + 11;
  static constexpr int kTagBcastDoubling = (1 << 28) + 12;

  /// One logical transmission to `dst`, consulting the machine's fault
  /// hooks: under message loss this models the full retry schedule (every
  /// attempt occupies the wire; timeouts back off exponentially) and
  /// returns the *final* attempt's result. Hook-free, it is one transfer.
  net::TransferResult transmit(int dst, double bytes, des::SimTime start);

  des::Task<Payload> bcast_flat(int root, double bytes, Payload payload);
  des::Task<Payload> bcast_binomial(int root, double bytes,
                                     Payload payload);
  des::Task<Payload> bcast_large_ring(int root, double bytes,
                                       Payload payload);
  des::Task<Payload> bcast_large_doubling(int root, double bytes,
                                           Payload payload);
  des::Task<void> barrier_flat();
  des::Task<void> barrier_combining();
  des::Task<void> barrier_dissemination();
  des::Task<std::vector<Payload>> gather_flat(int root, double bytes,
                                               Payload payload);
  des::Task<std::vector<Payload>> gather_binomial(int root, double bytes,
                                                   Payload payload);
  des::Task<Payload> scatter_flat(int root,
                                   const std::vector<double>& parts_bytes,
                                   std::vector<Payload> parts);
  des::Task<Payload> scatter_binomial(int root,
                                       const std::vector<double>& parts_bytes,
                                       std::vector<Payload> parts);
  des::Task<double> reduce_flat(int root, double value, ReduceOp op);
  des::Task<double> reduce_combining(int root, double value, ReduceOp op);
  des::Task<double> allreduce_reduce_bcast(double value, ReduceOp op);
  des::Task<double> allreduce_doubling(double value, ReduceOp op);
  /// Modeled size of a zero-payload control token (MPI header-ish).
  static constexpr double kTokenBytes = 16.0;

  des::Scheduler& scheduler() const { return *sched_; }

  Machine* machine_;
  des::Scheduler* sched_ = nullptr;
  int rank_;
  int size_;
};

}  // namespace hetscale::vmpi
