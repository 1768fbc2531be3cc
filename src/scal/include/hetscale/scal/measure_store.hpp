// MeasurementStore — a process-wide memo of combination measurements.
//
// The simulator is deterministic: a (configuration, N) pair always produces
// the same Measurement, bit for bit. Scenarios, however, each build their
// own Combination objects — the per-object cache in ClusterCombination
// cannot see that table3, table4, and table7 all simulate GE on the same
// ensembles. The store closes that gap: measurements are memoized under a
// *configuration fingerprint* (algorithm + cluster + network + data mode —
// everything that determines the run, and nothing that doesn't, so
// same-config combinations share regardless of display name), keyed by N.
//
// The store can be serialized to disk and reloaded, so repeated CLI
// invocations skip simulations they have already paid for. The format is
// versioned line-oriented text with %.17g doubles (exact round-trip); a
// version bump invalidates stale files wholesale.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "hetscale/scal/combination.hpp"

namespace hetscale::scal {

class MeasurementStore {
 public:
  /// The process-wide instance used by ClusterCombination. Enabled by
  /// default; `--no-measure-cache` turns it off for a CLI invocation.
  static MeasurementStore& global();

  MeasurementStore() = default;
  MeasurementStore(const MeasurementStore&) = delete;
  MeasurementStore& operator=(const MeasurementStore&) = delete;

  bool enabled() const;
  void set_enabled(bool enabled);

  /// Copy the stored measurement for (key, n) into `out`; false on miss.
  bool try_get(const std::string& key, std::int64_t n, Measurement& out);

  /// Memoize one measurement (last write wins — values for one key are
  /// identical by construction).
  void put(const std::string& key, std::int64_t n, const Measurement& m);

  std::size_t size() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;
  void clear();

  void save(std::ostream& os) const;
  bool save_file(const std::string& path) const;

  /// Merge entries from a previously saved stream, all or nothing: on a
  /// missing or mismatched header, or any malformed line (not exactly 7
  /// fields, a field not wholly numeric, a non-finite value, n < 1), loads
  /// nothing, returns false and puts the reason in `error` if given.
  bool load(std::istream& is, std::string* error = nullptr);
  bool load_file(const std::string& path);

 private:
  mutable std::mutex mutex_;
  bool enabled_ = true;
  std::map<std::string, std::map<std::int64_t, Measurement>> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// The canonical fingerprint of a measurable configuration. Every field
/// that influences a simulated run is folded in (node specs with full
/// precision, network kind and parameters, data mode, the collective
/// tuning, and the algorithm's own key); scenario/display names are
/// deliberately excluded. The paper-era legacy_flat tuning contributes no
/// component, so keys written before collective tuning existed keep
/// resolving to the same measurements.
std::string config_fingerprint(
    std::string_view algo_key, const machine::Cluster& cluster,
    NetworkKind network, const net::NetworkParams& params, bool with_data,
    const vmpi::CollectiveTuning& tuning = vmpi::CollectiveTuning::legacy_flat());

}  // namespace hetscale::scal
