// Machine — binds a Cluster and a Network into a runnable virtual parallel
// computer, and launches SPMD programs on it through the conservative
// window engine (des/parallel.hpp).
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "hetscale/des/scheduler.hpp"
#include "hetscale/des/task.hpp"
#include "hetscale/des/telemetry.hpp"
#include "hetscale/machine/cluster.hpp"
#include "hetscale/net/network.hpp"
#include "hetscale/obs/budget.hpp"
#include "hetscale/obs/profiler.hpp"
#include "hetscale/vmpi/comm.hpp"
#include "hetscale/vmpi/faults.hpp"
#include "hetscale/vmpi/message.hpp"
#include "hetscale/vmpi/trace.hpp"

namespace hetscale::vmpi {

/// Per-rank accounting of where virtual time went.
struct RankStats {
  double compute_s = 0.0;   ///< time inside compute()
  double comm_s = 0.0;      ///< time blocked in send/recv (collectives incl.)
  std::uint64_t messages_sent = 0;
  double bytes_sent = 0.0;
  des::SimTime finish = 0.0;  ///< when this rank's program returned
};

/// Result of one SPMD run.
struct RunResult {
  des::SimTime elapsed = 0.0;  ///< max over ranks of finish time
  std::vector<RankStats> ranks;
  net::NetworkStats network;

  /// Communication overhead in the sense of the paper's T = T_c + T_o
  /// decomposition, taken on the critical path: elapsed minus the largest
  /// per-rank compute time.
  double overhead_s() const;
};

/// The collective algorithm family a machine's Comms run. Every
/// collective that has two implementations (bcast, barrier, gather) picks
/// one by this single choice; see Comm's per-collective docs for what each
/// family runs.
///
/// `tree()` is the logarithmic family — what a modern MPI would run, and
/// what keeps 1k-4k-rank machines affordable; it is vmpi::Machine's
/// default. `legacy_flat()` is the paper-era Θ(p) family, matching the
/// measured Sunwulf T_bcast ≈ 0.23·p ms; scal::ClusterCombination::Config
/// and scal::make_machine default to it, so every golden scenario's
/// artifacts stay byte-identical to the original runs.
struct CollectiveTuning {
  enum class Family { kLegacyFlat, kTree };
  Family family = Family::kTree;

  friend bool operator==(const CollectiveTuning&,
                         const CollectiveTuning&) = default;

  static constexpr CollectiveTuning legacy_flat() {
    return {Family::kLegacyFlat};
  }
  static constexpr CollectiveTuning tree() { return {Family::kTree}; }
};

class Machine {
 public:
  /// Takes ownership of the network model. A Machine is pinned in memory
  /// once built (Comms and Mailboxes hold pointers back into it), so the
  /// factories below return through guaranteed copy elision only — which is
  /// why the collective tuning rides the constructor instead of a setter
  /// call on a named temporary.
  Machine(machine::Cluster cluster, std::unique_ptr<net::Network> network,
          const CollectiveTuning& tuning = {});

  /// Convenience: the paper's testbed shape (shared 100 Mb Ethernet).
  static Machine shared_bus(machine::Cluster cluster,
                            net::NetworkParams params = {},
                            const CollectiveTuning& tuning = {});

  /// Convenience: full-bisection switch (ablation).
  static Machine switched(machine::Cluster cluster,
                          net::NetworkParams params = {},
                          const CollectiveTuning& tuning = {});

  int world_size() const { return static_cast<int>(processors_.size()); }
  const machine::Cluster& cluster() const { return cluster_; }
  const machine::Processor& processor(int rank) const;
  net::Network& network() { return *network_; }

  /// Host events processed by the finished run, summed over its partition
  /// schedulers.
  std::uint64_t events_processed() const;

  Mailbox& mailbox(int rank);
  RankStats& rank_stats(int rank);

  /// OS threads this machine's simulation may use (--sim-threads). New
  /// machines inherit global_sim_threads().
  int sim_threads() const { return sim_threads_; }
  void set_sim_threads(int threads);

  /// How many partitions run() splits the ranks into, each advanced by its
  /// own scheduler and thread: min(sim_threads(), world_size()) when the
  /// network has a positive lookahead (a shared bus has none) and no node
  /// hosts two ranks (they would share an injection port), otherwise 1.
  /// Results are bit-identical at any count.
  int partitions() const;

  /// Deliver a message from `src` into `dst`'s mailbox. Messages within a
  /// partition post directly; cross-partition ones park in an outbox and
  /// are drained into the destination at the next window boundary in a
  /// canonical (post-time, source, sequence) order, so delivery order —
  /// and hence every golden artifact — is independent of the thread count.
  void post_message(int src, int dst, Message message);

  const CollectiveTuning& tuning() const { return tuning_; }

  /// Turn on execution tracing (before run()); the recorder lives as long
  /// as the machine. Null when tracing is off. Traced runs partition too.
  TraceRecorder& enable_tracing();
  TraceRecorder* tracer() { return tracer_.get(); }

  /// The ambient profiler this machine publishes to, picked up from
  /// obs::current() at construction (null when profiling is off). A
  /// profiled machine traces automatically and appends one obs::RunProfile
  /// when run() completes.
  obs::Profiler* profiler() { return profiler_; }

  /// Attach fault hooks (before run()). Non-owning: the caller keeps the
  /// hooks alive for the run and reads their accounting afterwards. Null
  /// (the default) runs the machine healthy, hook-free.
  void attach_fault_hooks(FaultHooks* hooks);
  FaultHooks* fault_hooks() { return fault_hooks_; }

  /// An SPMD program: called once per rank to create that rank's coroutine.
  using Program = std::function<des::Task<void>(Comm&)>;

  /// Launch `program` on every rank and run the simulation to completion
  /// through des::run_conservative on partitions() schedulers. A Machine
  /// is single-shot: construct a fresh one per run.
  RunResult run(const Program& program);

 private:
  /// One cross-partition message with its canonical delivery key.
  struct Handoff {
    des::SimTime post_time = 0.0;  ///< sender's virtual time at post
    int src = 0;
    int dst = 0;
    std::uint64_t seq = 0;  ///< per-source post counter (total order per src)
    Message message;
  };

  void deliver_inboxes(int partition);
  void publish_profile(const RunResult& result);
  [[noreturn]] void rethrow_with_deadlock_diagnosis(
      const des::DeadlockError& deadlock) const;

  machine::Cluster cluster_;
  std::unique_ptr<net::Network> network_;
  std::vector<machine::Processor> processors_;
  bool partitionable_ = false;  ///< positive lookahead, one rank per node
  std::vector<Mailbox> mailboxes_;  ///< built by run(), one per rank
  std::vector<RankStats> stats_;
  std::vector<Comm> comms_;
  CollectiveTuning tuning_;
  std::unique_ptr<TraceRecorder> tracer_;
  FaultHooks* fault_hooks_ = nullptr;
  obs::Profiler* profiler_ = nullptr;
  bool ran_ = false;

  int sim_threads_ = 1;
  std::vector<int> partition_of_;  ///< rank -> partition (contiguous blocks)
  std::vector<std::unique_ptr<des::Scheduler>> schedulers_;  ///< per partition
  /// What a profiled partition leaves for publish_profile(): its engine
  /// telemetry, and the budget timeline of its rank block, built on its
  /// own thread once its window loop ends.
  struct PartitionProfile {
    des::QueueTelemetry queue;
    std::uint64_t frame_live_peak = 0;
    obs::BudgetTimeline budget;
    std::exception_ptr budget_error;  ///< from building `budget`
  };
  std::vector<PartitionProfile> partition_profiles_;  ///< if profiled
  /// outboxes_[src_partition * partitions + dst_partition]: messages parked
  /// between window boundaries. Only the source partition's thread
  /// appends; only the destination's drains — and never concurrently (the
  /// drain happens inside the barrier-fenced delivery phase).
  std::vector<std::vector<Handoff>> outboxes_;
  std::vector<std::uint64_t> handoff_seq_;      ///< per-source post counter
  std::vector<std::vector<Handoff>> inbox_scratch_;  ///< per-partition sort buffer
};

}  // namespace hetscale::vmpi
