#include "hetscale/fault/plan.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "hetscale/support/error.hpp"

namespace hetscale::fault {

double CounterRng::exponential(std::uint64_t stream, std::uint64_t counter,
                               double mean) const {
  HETSCALE_REQUIRE(mean > 0.0, "exponential mean must be positive");
  // 1 - u is in (0, 1], so the log is finite.
  return -mean * std::log(1.0 - uniform(stream, counter));
}

namespace {

// Stream ids for the plan generator: one namespace per event class so
// adding draws to one class never perturbs another.
constexpr std::uint64_t kStreamStraggler = 1;
constexpr std::uint64_t kStreamSlowdownPhase = 2;
constexpr std::uint64_t kStreamCrash = 3;
// Streams 16+ are reserved for the injector (see injector.cpp).

}  // namespace

FaultPlan FaultPlan::generate(std::uint64_t seed, const PlanSpec& spec,
                              int ranks) {
  HETSCALE_REQUIRE(ranks >= 1, "plan generation needs at least one rank");
  HETSCALE_REQUIRE(spec.horizon_s > 0.0, "plan horizon must be positive");
  FaultPlan plan(seed);
  const CounterRng rng(seed);
  std::size_t events = 0;
  const auto count_event = [&events] {
    HETSCALE_REQUIRE(events < kMaxPlanEvents,
                     "a fault plan holds at most " +
                         std::to_string(kMaxPlanEvents) +
                         " events (slowdown windows, link windows and "
                         "crashes); lower the rates or the horizon");
    ++events;
  };

  if (spec.slowdown_probability > 0.0) {
    HETSCALE_REQUIRE(
        spec.slowdown_factor > 0.0 && spec.slowdown_factor <= 1.0,
        "slowdown factor must be in (0, 1]");
    HETSCALE_REQUIRE(spec.slowdown_period_s > 0.0 && spec.slowdown_duty > 0.0 &&
                         spec.slowdown_duty <= 1.0,
                     "slowdown period/duty out of range");
    for (int r = 0; r < ranks; ++r) {
      const auto rank = static_cast<std::uint64_t>(r);
      if (rng.uniform(kStreamStraggler, rank) >= spec.slowdown_probability) {
        continue;
      }
      // Jitter the phase per rank so stragglers don't throttle in lockstep.
      const double phase =
          rng.uniform(kStreamSlowdownPhase, rank) * spec.slowdown_period_s;
      const double degraded = spec.slowdown_duty * spec.slowdown_period_s;
      for (des::SimTime start = phase; start < spec.horizon_s;
           start += spec.slowdown_period_s) {
        count_event();
        plan.add_slowdown({r, start,
                           std::min(start + degraded, spec.horizon_s),
                           spec.slowdown_factor});
      }
    }
  }

  if (spec.link_duty > 0.0) {
    HETSCALE_REQUIRE(spec.link_duty <= 1.0 && spec.link_period_s > 0.0,
                     "link period/duty out of range");
    const double degraded = spec.link_duty * spec.link_period_s;
    for (des::SimTime start = 0.0; start < spec.horizon_s;
         start += spec.link_period_s) {
      count_event();
      plan.add_link_fault({start, std::min(start + degraded, spec.horizon_s),
                           spec.link_bandwidth_factor,
                           spec.link_extra_latency_s});
    }
  }

  if (spec.crash_rate_per_s > 0.0) {
    const double mean = 1.0 / spec.crash_rate_per_s;
    for (int r = 0; r < ranks; ++r) {
      // Counter-keyed Poisson arrivals: rank r's k-th inter-arrival gap is
      // draw (kStreamCrash, r * 2^32 + k) — independent of other ranks.
      const auto base = static_cast<std::uint64_t>(r) << 32;
      des::SimTime at = 0.0;
      for (std::uint64_t k = 0;; ++k) {
        at += rng.exponential(kStreamCrash, base + k, mean);
        if (at >= spec.horizon_s) break;
        count_event();
        plan.add_crash({r, at});
      }
    }
  }

  plan.set_loss(spec.loss);
  plan.set_checkpoint(spec.checkpoint);
  plan.set_restart_delay(spec.restart_delay_s);
  return plan;
}

FaultPlan& FaultPlan::add_slowdown(SlowdownEvent event) {
  HETSCALE_REQUIRE(event.rank >= 0, "slowdown rank must be >= 0");
  HETSCALE_REQUIRE(event.start >= 0.0 && event.end > event.start,
                   "slowdown interval must be non-empty and non-negative");
  HETSCALE_REQUIRE(event.factor > 0.0 && event.factor <= 1.0,
                   "slowdown factor must be in (0, 1]");
  slowdowns_.push_back(event);
  return *this;
}

FaultPlan& FaultPlan::add_link_fault(LinkFaultEvent event) {
  HETSCALE_REQUIRE(event.start >= 0.0 && event.end > event.start,
                   "link fault interval must be non-empty and non-negative");
  HETSCALE_REQUIRE(event.bandwidth_factor > 0.0 &&
                       event.bandwidth_factor <= 1.0,
                   "bandwidth factor must be in (0, 1]");
  HETSCALE_REQUIRE(event.extra_latency_s >= 0.0,
                   "extra latency must be non-negative");
  link_faults_.push_back(event);
  return *this;
}

FaultPlan& FaultPlan::add_crash(CrashEvent event) {
  HETSCALE_REQUIRE(event.rank >= 0 && event.at > 0.0,
                   "crash needs rank >= 0 and a positive time");
  crashes_.push_back(event);
  return *this;
}

FaultPlan& FaultPlan::set_loss(LossModel loss) {
  HETSCALE_REQUIRE(loss.drop_probability >= 0.0 && loss.drop_probability < 1.0,
                   "drop probability must be in [0, 1)");
  HETSCALE_REQUIRE(!loss.enabled() ||
                       (loss.retry_timeout_s > 0.0 && loss.backoff >= 1.0 &&
                        loss.max_attempts >= 2),
                   "loss model needs timeout > 0, backoff >= 1, attempts >= 2");
  loss_ = loss;
  return *this;
}

FaultPlan& FaultPlan::set_checkpoint(CheckpointPolicy policy) {
  HETSCALE_REQUIRE(!policy.enabled() ||
                       (policy.bytes >= 0.0 && policy.flops >= 0.0 &&
                        policy.write_bandwidth_Bps > 0.0),
                   "checkpoint policy has negative costs or zero bandwidth");
  checkpoint_ = policy;
  return *this;
}

FaultPlan& FaultPlan::set_restart_delay(des::SimTime delay_s) {
  HETSCALE_REQUIRE(delay_s >= 0.0, "restart delay must be non-negative");
  restart_delay_ = delay_s;
  return *this;
}

double FaultPlan::slowdown_factor(int rank, des::SimTime t) const {
  double factor = 1.0;
  for (const auto& event : slowdowns_) {
    if (event.rank == rank && t >= event.start && t < event.end) {
      factor *= event.factor;
    }
  }
  return factor;
}

FaultPlan::LinkState FaultPlan::link_state(des::SimTime t) const {
  LinkState state;
  for (const auto& event : link_faults_) {
    if (t >= event.start && t < event.end) {
      state.bandwidth_factor *= event.bandwidth_factor;
      state.extra_latency_s += event.extra_latency_s;
    }
  }
  return state;
}

std::vector<des::SimTime> FaultPlan::crash_times(int rank) const {
  std::vector<des::SimTime> times;
  for (const auto& event : crashes_) {
    if (event.rank == rank) times.push_back(event.at);
  }
  std::sort(times.begin(), times.end());
  return times;
}

std::string FaultPlan::summary() const {
  std::ostringstream os;
  os << "seed=" << seed_ << ": " << slowdowns_.size() << " slowdowns, "
     << link_faults_.size() << " link faults, " << crashes_.size()
     << " crashes";
  if (loss_.enabled()) os << ", loss p=" << loss_.drop_probability;
  if (checkpoint_.enabled()) {
    os << ", checkpoint every " << checkpoint_.interval_s << "s";
  }
  return os.str();
}

}  // namespace hetscale::fault
