// Algorithm-system combinations — the unit the metric is defined over.
//
// "An algorithm-system combination is scalable if the achieved
//  speed-efficiency of the combination can remain constant with increasing
//  system ensemble size, provided the problem size can be increased with
//  the system size." (Definition 4)
//
// A Combination bundles an algorithm with a concrete (simulated) system and
// can be *measured* at any problem size N. Measurements are cached: the
// marked speed is a constant of the study (Definition 1), and the simulator
// is deterministic, so re-measuring the same N is pure waste.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hetscale/machine/cluster.hpp"
#include "hetscale/net/network.hpp"
#include "hetscale/numeric/polynomial.hpp"
#include "hetscale/scal/algo_spec.hpp"
#include "hetscale/vmpi/machine.hpp"

namespace hetscale::run {
class Runner;
}  // namespace hetscale::run

namespace hetscale::scal {

/// One measured point of a combination (a row of the paper's Table 2).
struct Measurement {
  std::int64_t n = 0;
  double work_flops = 0.0;
  double seconds = 0.0;
  double speed_flops = 0.0;       ///< S = W/T
  double speed_efficiency = 0.0;  ///< E_s = S/C
  double overhead_s = 0.0;        ///< critical-path T_o (see RunResult)
};

enum class NetworkKind { kSharedBus, kSwitched };

/// The network model a NetworkKind names.
std::unique_ptr<net::Network> make_network(NetworkKind kind,
                                           const net::NetworkParams& params);

/// Build a single-shot machine for one run of a combination. The tuning
/// default is the paper-era flat collective family: every measurement path
/// that predates the tree collectives pins legacy behaviour unless its
/// combination asks otherwise.
vmpi::Machine make_machine(
    const machine::Cluster& cluster, NetworkKind kind,
    const net::NetworkParams& params,
    const vmpi::CollectiveTuning& tuning = vmpi::CollectiveTuning::legacy_flat());

class Combination {
 public:
  virtual ~Combination() = default;

  virtual const std::string& name() const = 0;

  /// C — the system's marked speed (flop/s), a constant of the study.
  virtual double marked_speed() const = 0;

  /// W(N) — the workload polynomial of the algorithm.
  virtual double work(std::int64_t n) const = 0;

  /// Run (simulate) the combination at problem size N; cached.
  virtual const Measurement& measure(std::int64_t n) = 0;

  /// Measure a batch of sizes, returned in request order. The base
  /// implementation is the sequential fallback (a measure() loop);
  /// combinations whose runs are independent override it to execute the
  /// uncached sizes concurrently on the runner. Results are merged in
  /// request order, so the outcome is bit-identical to sequential.
  virtual std::vector<Measurement> measure_many(
      std::span<const std::int64_t> sizes, run::Runner& runner);
};

/// An algorithm (AlgoSpec) on a simulated cluster (Config).
class ClusterCombination final : public Combination {
 public:
  struct Config {
    machine::Cluster cluster;
    /// Default matches the modeled testbed: a switched 100 Mb Ethernet
    /// (per-node injection serialization). Shared-bus is the ablation.
    NetworkKind network = NetworkKind::kSwitched;
    net::NetworkParams net_params{};
    bool with_data = false;  ///< timing-only by default for sweeps
    /// Collective algorithm family the combination's machines run. Defaults
    /// to the paper-era flat family so every pre-existing scenario (and its
    /// golden artifact) is byte-identical to the original runs; large-p
    /// studies opt into vmpi::CollectiveTuning::tree(). Part of the
    /// measurement fingerprint — flat and tree runs never alias in the
    /// store.
    vmpi::CollectiveTuning tuning = vmpi::CollectiveTuning::legacy_flat();
  };

  ClusterCombination(std::string name, Config config, AlgoSpec algo);

  const std::string& name() const override { return name_; }
  double marked_speed() const override { return marked_speed_; }
  double work(std::int64_t n) const override { return algo_.work(n); }
  const Measurement& measure(std::int64_t n) override;

  /// Uncached sizes are simulated concurrently: every run builds its own
  /// machine and only reads shared state, so simulations are independent;
  /// the cache is filled on the calling thread in request order.
  std::vector<Measurement> measure_many(std::span<const std::int64_t> sizes,
                                        run::Runner& runner) override;

  /// The one measurement path: run the algorithm once at size n on
  /// `machine` — a fresh machine built from config(), possibly wrapped
  /// (faults) or observed (profiling) — and score it against this
  /// combination's marked speed. Uncached, and pure w.r.t. this object.
  Measurement run_on(vmpi::Machine& machine, std::int64_t n) const;

  const Config& config() const { return config_; }
  const machine::Cluster& cluster() const { return config_.cluster; }
  const std::vector<double>& rank_speeds() const { return rank_speeds_; }
  int processor_count() const { return config_.cluster.processor_count(); }

 private:
  /// run_on a fresh machine built from config().
  Measurement compute(std::int64_t n) const;

  std::string name_;
  Config config_;
  AlgoSpec algo_;
  std::vector<double> rank_speeds_;  ///< per-rank marked speeds
  double marked_speed_ = 0.0;        ///< measured once, then constant
  std::string store_key_;            ///< MeasurementStore fingerprint
  std::map<std::int64_t, Measurement> cache_;
};

/// A sampled speed-efficiency curve (the data behind Figs. 1–2).
struct EfficiencyCurve {
  std::string label;
  std::vector<Measurement> samples;

  std::vector<double> sizes() const;
  std::vector<double> efficiencies() const;
};

/// Measure the combination at each size.
EfficiencyCurve sample_efficiency_curve(Combination& combination,
                                        std::span<const std::int64_t> sizes);

/// Measure the combination at each size as one batch on the runner —
/// byte-identical samples to the sequential overload, in any jobs count.
EfficiencyCurve sample_efficiency_curve(Combination& combination,
                                        std::span<const std::int64_t> sizes,
                                        run::Runner& runner);

/// Least-squares polynomial trend line through (N, E_s) samples — the
/// paper's "Poly." curves in Figs. 1 and 2.
numeric::Polynomial fit_trend(const EfficiencyCurve& curve,
                              std::size_t degree = 3);

}  // namespace hetscale::scal
