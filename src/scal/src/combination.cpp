#include "hetscale/scal/combination.hpp"

#include <algorithm>
#include <utility>

#include "hetscale/marked/suite.hpp"
#include "hetscale/net/shared_bus.hpp"
#include "hetscale/net/switched.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/scal/measure_store.hpp"
#include "hetscale/scal/metrics.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::scal {

std::vector<Measurement> Combination::measure_many(
    std::span<const std::int64_t> sizes, run::Runner& /*runner*/) {
  // Sequential fallback for combinations that cannot promise independent
  // concurrent runs.
  std::vector<Measurement> out;
  out.reserve(sizes.size());
  for (const auto n : sizes) out.push_back(measure(n));
  return out;
}

std::unique_ptr<net::Network> make_network(NetworkKind kind,
                                           const net::NetworkParams& params) {
  if (kind == NetworkKind::kSharedBus) {
    return std::make_unique<net::SharedBusNetwork>(params);
  }
  return std::make_unique<net::SwitchedNetwork>(params);
}

vmpi::Machine make_machine(const machine::Cluster& cluster, NetworkKind kind,
                           const net::NetworkParams& params,
                           const vmpi::CollectiveTuning& tuning) {
  return vmpi::Machine(cluster, make_network(kind, params), tuning);
}

ClusterCombination::ClusterCombination(std::string name, Config config,
                                       AlgoSpec algo)
    : name_(std::move(name)),
      config_(std::move(config)),
      algo_(std::move(algo)),
      rank_speeds_(marked::rank_marked_speeds(config_.cluster)),
      store_key_(config_fingerprint(algo_.key, config_.cluster,
                                    config_.network, config_.net_params,
                                    config_.with_data, config_.tuning)) {
  for (double c : rank_speeds_) marked_speed_ += c;
}

const Measurement& ClusterCombination::measure(std::int64_t n) {
  // Single probe: try_emplace both answers membership and reserves the
  // slot, so hit and miss each cost one tree walk.
  const auto [it, inserted] = cache_.try_emplace(n);
  if (!inserted) return it->second;
  auto& store = MeasurementStore::global();
  if (store.enabled() && store.try_get(store_key_, n, it->second)) {
    return it->second;
  }
  try {
    it->second = compute(n);
  } catch (...) {
    cache_.erase(it);  // don't leave a default-constructed placeholder
    throw;
  }
  if (store.enabled()) store.put(store_key_, n, it->second);
  return it->second;
}

Measurement ClusterCombination::run_on(vmpi::Machine& machine,
                                       std::int64_t n) const {
  HETSCALE_REQUIRE(n >= 1, "problem size must be >= 1");
  const AlgoRun run = algo_.run(machine, n, rank_speeds_, config_.with_data);
  Measurement m;
  m.n = n;
  m.work_flops = run.work_flops;
  m.seconds = run.seconds;
  m.speed_flops = achieved_speed(run.work_flops, run.seconds);
  m.speed_efficiency =
      speed_efficiency(run.work_flops, run.seconds, marked_speed_);
  m.overhead_s = run.overhead_s;
  return m;
}

Measurement ClusterCombination::compute(std::int64_t n) const {
  auto machine = make_machine(config_.cluster, config_.network,
                              config_.net_params, config_.tuning);
  return run_on(machine, n);
}

std::vector<Measurement> ClusterCombination::measure_many(
    std::span<const std::int64_t> sizes, run::Runner& runner) {
  // Sizes still to simulate, deduplicated. A single try_emplace probe per
  // size answers membership and reserves the slot the result lands in.
  // std::map iterators stay valid across later insertions, so collecting
  // them is safe.
  auto& store = MeasurementStore::global();
  const bool use_store = store.enabled();
  using Slot = std::map<std::int64_t, Measurement>::iterator;
  std::vector<std::pair<std::int64_t, Slot>> batch;
  for (const auto n : sizes) {
    const auto [it, inserted] = cache_.try_emplace(n);
    if (!inserted) continue;
    if (use_store && store.try_get(store_key_, n, it->second)) continue;
    batch.emplace_back(n, it);
  }
  // Shape the batch for the work-stealing Runner: ascending by problem
  // size. Simulation cost grows with n, and the Runner deals indices
  // round-robin with each lane popping its own deque LIFO — so after this
  // sort every lane *starts* on its most expensive probe (LPT-style) and
  // lanes that run dry steal the cheap leftovers. Execution order never
  // shows in the output: results land through the collected map iterators
  // and the returned vector is rebuilt in request order below.
  std::stable_sort(
      batch.begin(), batch.end(),
      [](const auto& a, const auto& b) { return a.first < b.first; });

  try {
    if (runner.jobs() > 1 && batch.size() > 1) {
      const auto computed = runner.map(
          batch.size(), [&](std::size_t i) { return compute(batch[i].first); });
      // Merge on the calling thread.
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i].second->second = computed[i];
      }
    } else {
      for (auto& [n, slot] : batch) slot->second = compute(n);
    }
  } catch (...) {
    for (auto& [n, slot] : batch) cache_.erase(slot);
    throw;
  }
  if (use_store) {
    for (const auto& [n, slot] : batch) {
      store.put(store_key_, n, slot->second);
    }
  }

  std::vector<Measurement> out;
  out.reserve(sizes.size());
  for (const auto n : sizes) out.push_back(cache_.at(n));
  return out;
}

std::vector<double> EfficiencyCurve::sizes() const {
  std::vector<double> xs;
  xs.reserve(samples.size());
  for (const auto& m : samples) xs.push_back(static_cast<double>(m.n));
  return xs;
}

std::vector<double> EfficiencyCurve::efficiencies() const {
  std::vector<double> ys;
  ys.reserve(samples.size());
  for (const auto& m : samples) ys.push_back(m.speed_efficiency);
  return ys;
}

EfficiencyCurve sample_efficiency_curve(Combination& combination,
                                        std::span<const std::int64_t> sizes) {
  EfficiencyCurve curve;
  curve.label = combination.name();
  curve.samples.reserve(sizes.size());
  for (auto n : sizes) curve.samples.push_back(combination.measure(n));
  return curve;
}

EfficiencyCurve sample_efficiency_curve(Combination& combination,
                                        std::span<const std::int64_t> sizes,
                                        run::Runner& runner) {
  EfficiencyCurve curve;
  curve.label = combination.name();
  curve.samples = combination.measure_many(sizes, runner);
  return curve;
}

numeric::Polynomial fit_trend(const EfficiencyCurve& curve,
                              std::size_t degree) {
  return numeric::polyfit(curve.sizes(), curve.efficiencies(), degree);
}

}  // namespace hetscale::scal
