// Comm — the per-rank communication handle of the virtual-time MPI runtime.
//
// Programming model (mirrors the MPI subset the paper's algorithms use):
//   * one rank per processor (HoHe: process count == processor count),
//   * blocking send / recv; every receive names its source and tag,
//   * collectives (bcast, barrier, gather, allgather, alltoall) built from
//     point-to-point messages, so their cost comes from the network model;
//     the machine's CollectiveTuning picks the paper-era flat family or
//     the logarithmic tree family for bcast, barrier and gather at once.
//
// Timing semantics:
//   * compute(flops) advances this rank's virtual time by flops / rate;
//   * send blocks until the network says the sender is free;
//   * recv completes at max(time recv was called, message arrival).
#pragma once

#include <vector>

#include "hetscale/des/task.hpp"
#include "hetscale/net/network.hpp"
#include "hetscale/obs/comm_matrix.hpp"
#include "hetscale/vmpi/message.hpp"

namespace hetscale::vmpi {

class Machine;
class TraceRecorder;

/// Broadcasts of at least this many bytes take a scatter + allgather
/// long-message algorithm in either collective family. 12288 bytes is
/// MPICH's historical long-message broadcast threshold; predict's overhead
/// models switch laws at the same size.
inline constexpr double kLargeBcastThresholdBytes = 12288.0;

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
  /// Tags are non-negative.
  des::Task<void> send(int dst, int tag, double bytes, Payload payload);

  /// Nonblocking, fire-and-forget send: the message is injected (the
  /// network reserves the link as usual, so later sends queue behind it)
  /// but the caller continues immediately — computation/communication
  /// overlap. Tags as for send().
  void isend(int dst, int tag, double bytes, Payload payload);

  /// Blocking receive of the oldest message from `source` with `tag`, a
  /// non-negative tag (no send can carry a negative one).
  des::Task<Message> recv(int source, int tag);

  // ---- Collectives (see file comment) ----

  /// Root's payload of modeled size `bytes` is delivered to every rank.
  /// Short messages take a flat tree (legacy_flat: linear in p, like the
  /// measured T_bcast ≈ const·p) or a binomial tree (tree: Θ(log p)).
  /// Messages of at least kLargeBcastThresholdBytes take a scatter +
  /// allgather long-message algorithm (legacy_flat: van de Geijn scatter +
  /// ring; tree: binomial scatter + doubling allgather), whose cost is
  /// ~2·bytes/B — essential to reproduce MM's behaviour (DESIGN.md §6).
  des::Task<Payload> bcast(int root, double bytes, Payload payload);

  /// All ranks synchronize: all-to-root tokens plus a root release
  /// (legacy_flat), or a binomial combining tree with a binomial release
  /// (tree). Both send 2(p-1) tokens.
  des::Task<void> barrier();

  /// Every rank contributes (`bytes`, `payload`); the root returns the
  /// vector indexed by rank, other ranks return an empty vector. Direct
  /// sends to the root (legacy_flat) or subtree bundles up a binomial tree
  /// (tree, Θ(log p) rounds).
  des::Task<std::vector<Payload>> gather(int root, double bytes,
                                          Payload payload);

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

  /// The machine's trace recorder (null when tracing is off). Group uses
  /// this to annotate its broadcasts' lanes on the CommMatrix.
  TraceRecorder* tracer() const;

  /// The CommMatrix phase a world-communicator tag implies: the fixed
  /// collective tags map to their phase, everything else is p2p. Group
  /// broadcasts ride on caller-chosen tags and override per lane instead.
  static obs::CommPhase phase_for_tag(int tag);

 private:
  static constexpr int kTagBcast = 1 << 28;
  static constexpr int kTagBarrierIn = (1 << 28) + 1;
  static constexpr int kTagBarrierOut = (1 << 28) + 2;
  static constexpr int kTagGather = (1 << 28) + 3;
  static constexpr int kTagBcastScatter = (1 << 28) + 5;
  static constexpr int kTagBcastRing = (1 << 28) + 6;
  static constexpr int kTagAllgather = (1 << 28) + 7;
  static constexpr int kTagAlltoall = (1 << 28) + 8;
  static constexpr int kTagBcastDoubling = (1 << 28) + 12;

  /// One logical transmission to `dst`, consulting the machine's fault
  /// hooks: under message loss this models the full retry schedule (every
  /// attempt occupies the wire; timeouts back off exponentially) and
  /// returns the *final* attempt's result. Hook-free, it is one transfer.
  net::TransferResult transmit(int dst, double bytes, des::SimTime start);

  /// Whether the machine runs the tree collective family (else legacy_flat).
  bool tree_family() const;

  des::Task<Payload> bcast_flat(int root, double bytes, Payload payload);
  des::Task<Payload> bcast_binomial(int root, double bytes,
                                     Payload payload);
  des::Task<Payload> bcast_large_ring(int root, double bytes,
                                       Payload payload);
  des::Task<Payload> bcast_large_doubling(int root, double bytes,
                                           Payload payload);
  des::Task<void> barrier_flat();
  des::Task<void> barrier_combining();
  des::Task<std::vector<Payload>> gather_flat(int root, double bytes,
                                               Payload payload);
  des::Task<std::vector<Payload>> gather_binomial(int root, double bytes,
                                                   Payload payload);
  /// Modeled size of a zero-payload control token (MPI header-ish).
  static constexpr double kTokenBytes = 16.0;

  des::Scheduler& scheduler() const { return *sched_; }

  Machine* machine_;
  des::Scheduler* sched_ = nullptr;
  int rank_;
  int size_;
};

}  // namespace hetscale::vmpi
