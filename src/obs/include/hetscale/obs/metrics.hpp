// MetricsRegistry — counters, gauges, and fixed-bucket histograms keyed by
// name + label set.
//
// Determinism contract: instruments are stored in a map ordered by
// (name, canonical labels), so iteration — and therefore every export — is
// byte-stable regardless of registration or update order. Label sets are
// canonicalized (sorted by key) at registration, so the same logical
// instrument is reached whatever order the caller lists its labels in.
//
// Thread safety: instrument *registration* is serialized internally;
// instrument *updates* are not. The profiling pipeline only writes metrics
// from deterministic single-threaded folds (obs::Report construction), so
// updates never race; callers instrumenting multi-threaded code must
// provide their own serialization.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace hetscale::obs {

/// Label set of one instrument, e.g. {{"phase", "compute"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotone accumulator (Prometheus counter semantics).
struct Counter {
  double value = 0.0;
  void add(double delta);
  void inc() { add(1.0); }
};

/// Last-written (or max-tracked) value.
struct Gauge {
  double value = 0.0;
  void set(double v) { value = v; }
  void set_max(double v);
};

/// Fixed-bucket histogram. Buckets use Prometheus `le` semantics: an
/// observation lands in the first bucket whose upper bound is >= it
/// (boundary values inclusive); one implicit overflow bucket catches the
/// rest, so bucket_counts().size() == upper_bounds().size() + 1.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double value);

  const std::vector<double>& upper_bounds() const { return bounds_; }
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

class MetricsRegistry {
 public:
  enum class Type { kCounter, kGauge, kHistogram };

  /// One registered instrument; `value` holds the live instance.
  struct Entry {
    std::string name;
    Labels labels;  ///< canonical (key-sorted)
    std::variant<Counter, Gauge, std::unique_ptr<Histogram>> value;
    Type type() const { return static_cast<Type>(value.index()); }
  };

  MetricsRegistry() = default;
  MetricsRegistry(MetricsRegistry&& other) noexcept;
  MetricsRegistry& operator=(MetricsRegistry&& other) noexcept;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. Throws PreconditionError on an invalid name, a
  /// duplicate label key, or a type clash with an existing instrument
  /// (for histograms, also on differing bucket bounds).
  Counter& counter(const std::string& name, Labels labels = {});
  Gauge& gauge(const std::string& name, Labels labels = {});
  Histogram& histogram(const std::string& name, std::vector<double> bounds,
                       Labels labels = {});

  /// Lookup without creation; nullptr when absent (labels in any order).
  const Counter* find_counter(const std::string& name,
                              Labels labels = {}) const;
  const Histogram* find_histogram(const std::string& name,
                                  Labels labels = {}) const;

  std::size_t size() const;
  bool empty() const { return size() == 0; }

  /// Visit every instrument in deterministic (name, labels) order.
  void for_each(const std::function<void(const Entry&)>& visit) const;

  /// Prometheus text exposition format (one # TYPE line per metric name).
  void write_prometheus(std::ostream& os) const;

  /// JSON array of instrument objects (non-finite values render as null).
  void write_json(std::ostream& os) const;

 private:
  Entry& entry_for(const std::string& name, Labels labels, Type type,
                   const std::vector<double>* bounds);
  const Entry* find(const std::string& name, Labels labels, Type type) const;

  using Key = std::pair<std::string, Labels>;
  mutable std::mutex mutex_;  ///< guards the map structure, not updates
  std::map<Key, Entry> entries_;
};

}  // namespace hetscale::obs
