#include "hetscale/fault/injector.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "hetscale/obs/span.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::fault {

namespace {

constexpr des::SimTime kNever = std::numeric_limits<des::SimTime>::infinity();

// Loss draws live in streams disjoint from the plan generator's (which uses
// small ids; see plan.cpp): one stream per rank, counter = message * 64 +
// attempt, so adding attempts to one message never shifts another's draws.
constexpr std::uint64_t kStreamLossBase = 1ULL << 32;
constexpr std::uint64_t kAttemptSlots = 64;

}  // namespace

Injector::Injector(const FaultPlan& plan, std::vector<double> healthy_rates)
    : plan_(&plan), rng_(plan.rng()) {
  HETSCALE_REQUIRE(!healthy_rates.empty(), "injector needs at least one rank");
  states_.resize(healthy_rates.size());
  const auto& checkpoint = plan.checkpoint();
  for (std::size_t r = 0; r < states_.size(); ++r) {
    RankState& state = states_[r];
    for (const auto& event : plan.slowdowns()) {
      if (event.rank == static_cast<int>(r)) state.slowdowns.push_back(event);
    }
    std::sort(state.slowdowns.begin(), state.slowdowns.end(),
              [](const SlowdownEvent& a, const SlowdownEvent& b) {
                return a.start < b.start;
              });
    state.crashes = plan.crash_times(static_cast<int>(r));
    if (checkpoint.enabled()) {
      HETSCALE_REQUIRE(healthy_rates[r] > 0.0,
                       "healthy rate must be positive to price checkpoints");
      state.next_checkpoint = checkpoint.interval_s;
      state.checkpoint_cost_s =
          checkpoint.bytes / checkpoint.write_bandwidth_Bps +
          checkpoint.flops / healthy_rates[r];
    }
  }
}

double Injector::factor_at(const RankState& state, des::SimTime t,
                           des::SimTime* piece_end) const {
  // The events are sorted by start; scan for the ones covering t. Per-rank
  // event lists are small (generated plans emit non-overlapping periodic
  // windows), so a linear scan with early exit is fine.
  double factor = 1.0;
  des::SimTime end = kNever;
  for (const auto& event : state.slowdowns) {
    if (event.start > t) {
      // A healthy (or partially covered) piece ends where the next event
      // begins.
      end = std::min(end, event.start);
      break;
    }
    if (t < event.end) {
      factor *= event.factor;
      end = std::min(end, event.end);
    }
  }
  *piece_end = end;
  return factor;
}

des::SimTime Injector::compute_end(int rank, des::SimTime start,
                                   double healthy_seconds) {
  HETSCALE_REQUIRE(rank >= 0 && rank < ranks(), "rank out of range");
  HETSCALE_REQUIRE(healthy_seconds >= 0.0,
                   "compute duration must be non-negative");
  RankState& state = states_[static_cast<std::size_t>(rank)];
  const bool checkpoints = plan_->checkpoint().enabled();

  des::SimTime t = start;
  double remaining = healthy_seconds;  // in healthy-rate seconds
  double added_checkpoint = 0.0;
  double added_rework = 0.0;
  while (remaining > 0.0) {
    des::SimTime piece_end = kNever;
    const double factor = factor_at(state, t, &piece_end);

    // The next boundary where the walk must stop: a rate change, a due
    // checkpoint, or a crash. A checkpoint or crash whose scheduled time
    // passed while the rank was blocked in communication manifests *now*
    // (hence the clamp to t). Ties resolve checkpoint-before-crash, so a
    // crash coinciding with a checkpoint rolls back to that checkpoint.
    des::SimTime boundary = piece_end;
    enum class At { kRateChange, kCheckpoint, kCrash } at = At::kRateChange;
    if (checkpoints && std::max(state.next_checkpoint, t) <= boundary) {
      boundary = std::max(state.next_checkpoint, t);
      at = At::kCheckpoint;
    }
    if (state.next_crash < state.crashes.size() &&
        std::max(state.crashes[state.next_crash], t) < boundary) {
      boundary = std::max(state.crashes[state.next_crash], t);
      at = At::kCrash;
    }

    const des::SimTime finish = t + remaining / factor;
    if (finish <= boundary) {
      t = finish;
      break;
    }
    remaining -= (boundary - t) * factor;
    t = boundary;
    switch (at) {
      case At::kRateChange:
        break;
      case At::kCheckpoint:
        if (spans_ != nullptr) {
          spans_->record(rank, checkpoint_span_id_, t,
                         t + state.checkpoint_cost_s);
        }
        t += state.checkpoint_cost_s;
        added_checkpoint += state.checkpoint_cost_s;
        ++state.stats.checkpoints;
        state.last_checkpoint = t;
        // The cadence restarts from the checkpoint's completion, so a
        // costly checkpoint cannot schedule the next one in the past.
        state.next_checkpoint = t + plan_->checkpoint().interval_s;
        break;
      case At::kCrash: {
        // Restart, then re-execute everything since the last checkpoint.
        // Elapsed virtual time in the lost window is the (conservative)
        // rework measure: waiting inside it counts as lost work too.
        const double rework =
            plan_->restart_delay_s() + (t - state.last_checkpoint);
        if (spans_ != nullptr) {
          spans_->record(rank, rework_span_id_, t, t + rework);
        }
        t += rework;
        added_rework += rework;
        ++state.stats.crashes;
        ++state.next_crash;
        // Post-restart state is the recovered checkpoint, re-synced to now.
        state.last_checkpoint = t;
        if (checkpoints) {
          state.next_checkpoint = t + plan_->checkpoint().interval_s;
        }
        break;
      }
    }
  }

  state.stats.checkpoint_s += added_checkpoint;
  state.stats.rework_s += added_rework;
  // Remainder of the stretch; clamp away the subtraction's floating-point
  // dust (it can land a hair below zero when no slowdown is active).
  state.stats.slowdown_s += std::max(
      0.0, (t - start) - healthy_seconds - added_checkpoint - added_rework);
  return t;
}

vmpi::SendFaultPlan Injector::send_faults(int rank) {
  HETSCALE_REQUIRE(rank >= 0 && rank < ranks(), "rank out of range");
  RankState& state = states_[static_cast<std::size_t>(rank)];
  const std::uint64_t message = state.messages++;
  const LossModel& loss = plan_->loss();
  vmpi::SendFaultPlan out;
  if (!loss.enabled()) return out;
  const std::uint64_t stream =
      kStreamLossBase + static_cast<std::uint64_t>(rank);
  int attempts = 1;
  while (attempts < loss.max_attempts &&
         rng_.uniform(stream, message * kAttemptSlots +
                                  static_cast<std::uint64_t>(attempts - 1)) <
             loss.drop_probability) {
    ++attempts;
  }
  state.stats.retries += static_cast<std::uint64_t>(attempts - 1);
  out.attempts = attempts;
  out.retry_timeout_s = loss.retry_timeout_s;
  out.backoff = loss.backoff;
  return out;
}

void Injector::record_retry_wait(int rank, double seconds) {
  HETSCALE_REQUIRE(rank >= 0 && rank < ranks(), "rank out of range");
  HETSCALE_REQUIRE(seconds >= 0.0, "retry wait must be non-negative");
  states_[static_cast<std::size_t>(rank)].stats.retry_s += seconds;
}

void Injector::bind_span_sink(obs::SpanStore* spans) {
  spans_ = spans;
  if (spans_ != nullptr) {
    checkpoint_span_id_ = spans_->intern("checkpoint");
    rework_span_id_ = spans_->intern("fault.rework");
  }
}

obs::FaultProfileTotals Injector::fault_profile() const {
  const RankFaultStats total = totals();
  return obs::FaultProfileTotals{total.slowdown_s, total.checkpoint_s,
                                 total.rework_s,   total.retry_s,
                                 total.checkpoints, total.crashes,
                                 total.retries};
}

const RankFaultStats& Injector::rank_stats(int rank) const {
  HETSCALE_REQUIRE(rank >= 0 && rank < ranks(), "rank out of range");
  return states_[static_cast<std::size_t>(rank)].stats;
}

RankFaultStats Injector::totals() const {
  RankFaultStats total;
  for (const auto& state : states_) {
    total.slowdown_s += state.stats.slowdown_s;
    total.checkpoint_s += state.stats.checkpoint_s;
    total.rework_s += state.stats.rework_s;
    total.retry_s += state.stats.retry_s;
    total.checkpoints += state.stats.checkpoints;
    total.crashes += state.stats.crashes;
    total.retries += state.stats.retries;
  }
  return total;
}

double Injector::critical_path_fault_s() const {
  double worst = 0.0;
  for (const auto& state : states_) {
    worst = std::max(worst, state.stats.total_s());
  }
  return worst;
}

}  // namespace hetscale::fault
