#include "hetscale/vmpi/machine.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <sstream>
#include <string>
#include <utility>

#include "hetscale/des/frame_pool.hpp"
#include "hetscale/des/parallel.hpp"
#include "hetscale/net/shared_bus.hpp"
#include "hetscale/net/switched.hpp"
#include "hetscale/obs/budget.hpp"
#include "hetscale/obs/critical_path.hpp"
#include "hetscale/support/args.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::vmpi {

double RunResult::overhead_s() const {
  double max_compute = 0.0;
  for (const auto& r : ranks) max_compute = std::max(max_compute, r.compute_s);
  return std::max(0.0, elapsed - max_compute);
}

Machine::Machine(machine::Cluster cluster,
                 std::unique_ptr<net::Network> network,
                 const CollectiveTuning& tuning)
    : cluster_(std::move(cluster)),
      network_(std::move(network)),
      tuning_(tuning) {
  HETSCALE_REQUIRE(network_ != nullptr, "network must not be null");
  processors_ = cluster_.processors();
  HETSCALE_REQUIRE(!processors_.empty(),
                   "cluster has no participating processors");
  comms_.reserve(processors_.size());
  stats_.resize(processors_.size());
  const int size = static_cast<int>(processors_.size());
  for (int r = 0; r < size; ++r) comms_.emplace_back(*this, r, size);
  // Every node contributes at least one processor, so one rank per node
  // means as many processors as nodes.
  partitionable_ = processors_.size() == cluster_.node_count() &&
                   network_->lookahead_s() > 0.0;
  sim_threads_ = global_sim_threads();
  // Profiling is ambient: a machine built inside a ProfilerScope traces
  // itself and publishes a RunProfile when run() completes, so every
  // scenario is profileable without plumbing.
  profiler_ = obs::current();
  if (profiler_ != nullptr) enable_tracing();
}

Machine Machine::shared_bus(machine::Cluster cluster,
                            net::NetworkParams params,
                            const CollectiveTuning& tuning) {
  return Machine(std::move(cluster),
                 std::make_unique<net::SharedBusNetwork>(params), tuning);
}

Machine Machine::switched(machine::Cluster cluster, net::NetworkParams params,
                          const CollectiveTuning& tuning) {
  return Machine(std::move(cluster),
                 std::make_unique<net::SwitchedNetwork>(params), tuning);
}

const machine::Processor& Machine::processor(int rank) const {
  HETSCALE_REQUIRE(rank >= 0 && rank < world_size(), "rank out of range");
  return processors_[static_cast<std::size_t>(rank)];
}

Mailbox& Machine::mailbox(int rank) {
  HETSCALE_REQUIRE(rank >= 0 && rank < static_cast<int>(mailboxes_.size()),
                   "rank out of range (mailboxes exist once run() starts)");
  return mailboxes_[static_cast<std::size_t>(rank)];
}

RankStats& Machine::rank_stats(int rank) {
  HETSCALE_REQUIRE(rank >= 0 && rank < world_size(), "rank out of range");
  return stats_[static_cast<std::size_t>(rank)];
}

void Machine::set_sim_threads(int threads) {
  HETSCALE_REQUIRE(!ran_, "set sim-threads before running the machine");
  HETSCALE_REQUIRE(threads >= 1, "sim-threads must be >= 1");
  sim_threads_ = threads;
}

std::uint64_t Machine::events_processed() const {
  std::uint64_t events = 0;
  for (const auto& scheduler : schedulers_) {
    events += scheduler->events_processed();
  }
  return events;
}

int Machine::partitions() const {
  return partitionable_ ? std::min(sim_threads_, world_size()) : 1;
}

void Machine::post_message(int src, int dst, Message message) {
  const int src_part = partition_of_[static_cast<std::size_t>(src)];
  const int dst_part = partition_of_[static_cast<std::size_t>(dst)];
  if (src_part == dst_part) {
    mailboxes_[static_cast<std::size_t>(dst)].post(std::move(message));
    return;
  }
  // The payload is about to cross threads: make every block it references
  // uniquely owned first, so its non-atomic refcounts never straddle a
  // partition boundary.
  message.payload.detach_for_transfer();
  const auto partitions = static_cast<int>(schedulers_.size());
  auto& outbox =
      outboxes_[static_cast<std::size_t>(src_part * partitions + dst_part)];
  outbox.push_back(Handoff{
      schedulers_[static_cast<std::size_t>(src_part)]->now(), src, dst,
      handoff_seq_[static_cast<std::size_t>(src)]++, std::move(message)});
}

void Machine::deliver_inboxes(int partition) {
  auto& scratch = inbox_scratch_[static_cast<std::size_t>(partition)];
  scratch.clear();
  const auto partitions = static_cast<int>(schedulers_.size());
  for (int src_part = 0; src_part < partitions; ++src_part) {
    auto& inbox = outboxes_[static_cast<std::size_t>(
        src_part * partitions + partition)];
    for (Handoff& handoff : inbox) scratch.push_back(std::move(handoff));
    inbox.clear();
  }
  // Canonical order: post time, then source rank, then per-source sequence.
  // This is a total order on the handoffs (the per-source counter breaks
  // every remaining tie), so the mailbox post order — and with it every
  // downstream artifact — is independent of the partition count.
  std::sort(scratch.begin(), scratch.end(),
            [](const Handoff& a, const Handoff& b) {
              if (a.post_time != b.post_time) return a.post_time < b.post_time;
              if (a.src != b.src) return a.src < b.src;
              return a.seq < b.seq;
            });
  for (Handoff& handoff : scratch) {
    mailboxes_[static_cast<std::size_t>(handoff.dst)].post(
        std::move(handoff.message));
  }
}

namespace {
des::Task<void> rank_main(Machine& machine, Comm& comm,
                          const Machine::Program& program) {
  co_await program(comm);
  machine.rank_stats(comm.rank()).finish = comm.now();
}
}  // namespace

TraceRecorder& Machine::enable_tracing() {
  HETSCALE_REQUIRE(!ran_, "enable tracing before running the machine");
  if (!tracer_) tracer_ = std::make_unique<TraceRecorder>();
  if (fault_hooks_ != nullptr) fault_hooks_->bind_span_sink(&tracer_->spans());
  return *tracer_;
}

void Machine::attach_fault_hooks(FaultHooks* hooks) {
  HETSCALE_REQUIRE(!ran_, "attach fault hooks before running the machine");
  fault_hooks_ = hooks;
  if (tracer_ && hooks != nullptr) hooks->bind_span_sink(&tracer_->spans());
}

namespace {
std::string describe_rank_wait(int rank, const Mailbox& box) {
  std::ostringstream out;
  const auto waiting = box.waiting_recv();
  out << "  rank " << rank << " blocked in recv(source=" << waiting->source
      << ", tag=" << waiting->tag << "); " << box.pending_count()
      << " pending unmatched message" << (box.pending_count() == 1 ? "" : "s");
  return out.str();
}
}  // namespace

void Machine::rethrow_with_deadlock_diagnosis(
    const des::DeadlockError& deadlock) const {
  // Quiescence with pending receivers: name what every blocked rank was
  // waiting for and what sat unmatched in its mailbox — the usual causes
  // are a tag mismatch or a rank that exited early (mailbox exhaustion).
  std::ostringstream out;
  out << deadlock.what() << "\n";
  for (int r = 0; r < world_size(); ++r) {
    const Mailbox& box = mailboxes_[static_cast<std::size_t>(r)];
    if (!box.waiting_recv()) continue;
    out << describe_rank_wait(r, box) << "\n";
  }
  out << "check that every posted tag has a matching receive and that no "
         "rank returned while peers still expected its messages";
  throw des::DeadlockError(out.str());
}

RunResult Machine::run(const Program& program) {
  HETSCALE_REQUIRE(!ran_, "a Machine is single-shot; construct a fresh one");
  ran_ = true;
  const int world = world_size();
  const int partitions = this->partitions();
  for (int p = 0; p < partitions; ++p) {
    schedulers_.push_back(std::make_unique<des::Scheduler>());
  }
  partition_of_.resize(static_cast<std::size_t>(world));
  mailboxes_.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    // Contiguous blocks, balanced to within one rank. Contiguity keeps the
    // tree collectives' heaviest edges (rank r <-> r +/- small powers of
    // two) mostly inside one partition.
    const int p = static_cast<int>(
        (static_cast<long long>(r) * partitions) / world);
    partition_of_[static_cast<std::size_t>(r)] = p;
    des::Scheduler& scheduler = *schedulers_[static_cast<std::size_t>(p)];
    mailboxes_.emplace_back(scheduler);
    comms_[static_cast<std::size_t>(r)].bind_scheduler(&scheduler);
  }
  if (partitions > 1) {
    outboxes_.resize(static_cast<std::size_t>(partitions) *
                     static_cast<std::size_t>(partitions));
    inbox_scratch_.resize(static_cast<std::size_t>(partitions));
    handoff_seq_.assign(static_cast<std::size_t>(world), 0);
  }
  if (profiler_ != nullptr) {
    partition_profiles_.resize(static_cast<std::size_t>(partitions));
    for (int p = 0; p < partitions; ++p) {
      schedulers_[static_cast<std::size_t>(p)]->bind_telemetry(
          &partition_profiles_[static_cast<std::size_t>(p)].queue);
    }
  }
  // Every per-node and per-rank sink exists before any partition records.
  network_->presize(static_cast<int>(cluster_.node_count()));
  if (tracer_) tracer_->presize_lanes(world);

  des::PartitionHooks hooks;
  hooks.bootstrap = [this, &program](int p) {
    // Spawn the partition's ranks HERE so their coroutine frames come from
    // (and return to) this thread's frame pool, and start the pool's
    // high-water mark at this run's baseline.
    des::detail::frame_pool_reset_live_peak();
    for (int r = 0; r < world_size(); ++r) {
      if (partition_of_[static_cast<std::size_t>(r)] != p) continue;
      schedulers_[static_cast<std::size_t>(p)]->spawn(
          rank_main(*this, comms_[static_cast<std::size_t>(r)], program));
    }
  };
  hooks.deliver = [this](int p) { deliver_inboxes(p); };
  hooks.finish = [this](int p) {
    if (partition_profiles_.empty()) return;
    PartitionProfile& mine = partition_profiles_[static_cast<std::size_t>(p)];
    mine.frame_live_peak = des::detail::frame_pool_live_peak();
    // Summarize this partition's ranks for the time budget here, on its own
    // thread: their lanes are final, and publish_profile() then only merges
    // the partitions' timelines and sweeps them.
    try {
      const auto [first, last] = std::equal_range(partition_of_.begin(),
                                                  partition_of_.end(), p);
      mine.budget = obs::BudgetTimeline::of_lanes(
          tracer_->spans(), static_cast<int>(first - partition_of_.begin()),
          static_cast<int>(last - partition_of_.begin()));
    } catch (...) {
      mine.budget_error = std::current_exception();
    }
  };
  std::vector<des::Scheduler*> schedulers;
  schedulers.reserve(schedulers_.size());
  for (const auto& scheduler : schedulers_) {
    schedulers.push_back(scheduler.get());
  }
  const std::vector<std::exception_ptr> errors =
      des::run_conservative(schedulers, network_->lookahead_s(), hooks);

  // A real exception from a rank program propagates first (lowest partition
  // first — partitions are rank-ordered, as roots are in sequential order);
  // otherwise any partition-local deadlock gets the machine-wide diagnosis.
  std::optional<std::string> deadlock;
  for (const std::exception_ptr& error : errors) {
    if (!error) continue;
    try {
      std::rethrow_exception(error);
    } catch (const des::DeadlockError& stuck) {
      if (!deadlock) deadlock = stuck.what();
    }
  }
  if (deadlock) rethrow_with_deadlock_diagnosis(des::DeadlockError(*deadlock));

  RunResult result;
  result.ranks = stats_;
  result.network = network_->stats();
  for (const auto& r : stats_) {
    result.elapsed = std::max(result.elapsed, r.finish);
  }
  if (profiler_ != nullptr) publish_profile(result);
  return result;
}

void Machine::publish_profile(const RunResult& result) {
  obs::RunProfile profile;
  profile.elapsed_s = result.elapsed;
  {
    // Merge and sweep the partitions' timelines, freeing them before the
    // critical-path walk.
    std::vector<obs::BudgetTimeline> timelines;
    for (PartitionProfile& part : partition_profiles_) {
      if (part.budget_error) std::rethrow_exception(part.budget_error);
      timelines.push_back(std::move(part.budget));
    }
    profile.budget = obs::sweep_time_budget(timelines, result.elapsed);
  }
  for (const auto& r : stats_) {
    profile.compute_s += r.compute_s;
    profile.comm_s += r.comm_s;
  }
  // Traffic (messages, nominal bytes) comes from the outermost model;
  // link occupancy comes from the wire model, where degraded (inflated)
  // frames actually held the medium.
  profile.messages = result.network.messages;
  profile.bytes = result.network.bytes;
  const net::NetworkStats wire = network_->wire_model().stats();
  profile.wire_s = wire.wire_seconds;
  profile.contention_s = wire.contention_seconds;
  for (const auto& [node, link] : wire.links) {
    profile.links.push_back(
        obs::LinkProfile{node, link.bytes, link.wire_s, link.stall_s});
  }
  profile.des_events = events_processed();
  profile.comm_cells = tracer_->comm().cells();
  const obs::CriticalPath path = obs::critical_path(
      tracer_->spans(), tracer_->messages(), result.elapsed);
  profile.critical_path = obs::CriticalPathSummary{
      path.compute_s, path.comm_s, path.wait_s, path.fault_s};
  // Engine telemetry, the one part of a profile that depends on the
  // partition count: counters and peaks (then an upper bound) add up over
  // the partition schedulers, occupancy samples concatenate in order.
  for (std::size_t p = 0; p < schedulers_.size(); ++p) {
    const des::QueueTelemetry& queue = partition_profiles_[p].queue;
    profile.des_queue_depth_max += schedulers_[p]->max_queue_depth();
    profile.frame_live_peak += partition_profiles_[p].frame_live_peak;
    profile.des_queue.pushes += queue.pushes;
    profile.des_queue.pops += queue.pops;
    profile.des_queue.far_inserts += queue.far_inserts;
    profile.des_queue.rebuilds += queue.rebuilds;
    profile.des_queue.samples_dropped += queue.samples_dropped;
    for (const des::QueueTelemetry::Sample& s : queue.occupancy) {
      profile.des_queue.occupancy.push_back(
          obs::DesQueueStats::Sample{s.time, s.depth});
    }
  }
  if (fault_hooks_ != nullptr) {
    profile.fault = fault_hooks_->fault_profile();
    profile.retries = profile.fault.retries;
    profile.backoff_s = profile.fault.retry_s;
  }
  profiler_->add_run(std::move(profile));
}

}  // namespace hetscale::vmpi
