#include "hetscale/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "hetscale/obs/format.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::obs {

namespace {

bool valid_metric_name(const std::string& name) {
  if (name.empty()) return false;
  auto word = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
  };
  if (name.front() >= '0' && name.front() <= '9') return false;
  return std::all_of(name.begin(), name.end(), word);
}

/// Sort labels by key; duplicate keys are a caller bug.
Labels canonical(Labels labels) {
  std::sort(labels.begin(), labels.end());
  for (std::size_t i = 1; i < labels.size(); ++i) {
    HETSCALE_REQUIRE(labels[i - 1].first != labels[i].first,
                     "duplicate label key '" + labels[i].first + "'");
  }
  return labels;
}

std::string prom_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out += ",";
    first = false;
    out += key + "=\"" + prom_escape(value) + "\"";
  }
  out += "}";
  return out;
}

/// Prometheus renders +Inf bucket bounds and values as literal tokens; the
/// JSON exporter uses null instead.
std::string prom_number(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  return format_double(value);
}

void write_json_labels(std::ostream& os, const Labels& labels) {
  os << "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) os << ",";
    first = false;
    os << '"' << json_escape(key) << "\":\"" << json_escape(value) << '"';
  }
  os << "}";
}

}  // namespace

void Counter::add(double delta) {
  HETSCALE_REQUIRE(delta >= 0.0, "counters only go up");
  value += delta;
}

void Gauge::set_max(double v) { value = std::max(value, v); }

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  HETSCALE_REQUIRE(!bounds_.empty(), "histogram needs at least one bucket");
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    HETSCALE_REQUIRE(std::isfinite(bounds_[i]),
                     "histogram bounds must be finite (the overflow bucket "
                     "is implicit)");
    HETSCALE_REQUIRE(i == 0 || bounds_[i - 1] < bounds_[i],
                     "histogram bounds must be strictly increasing");
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double value) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
  ++count_;
  sum_ += value;
}

MetricsRegistry::MetricsRegistry(MetricsRegistry&& other) noexcept {
  std::lock_guard<std::mutex> lock(other.mutex_);
  entries_ = std::move(other.entries_);
}

MetricsRegistry& MetricsRegistry::operator=(MetricsRegistry&& other) noexcept {
  if (this != &other) {
    std::scoped_lock lock(mutex_, other.mutex_);
    entries_ = std::move(other.entries_);
  }
  return *this;
}

MetricsRegistry::Entry& MetricsRegistry::entry_for(
    const std::string& name, Labels labels, Type type,
    const std::vector<double>* bounds) {
  HETSCALE_REQUIRE(valid_metric_name(name),
                   "invalid metric name '" + name +
                       "' (want [A-Za-z_][A-Za-z0-9_]*)");
  Labels key_labels = canonical(std::move(labels));
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(Key{name, key_labels});
  if (it != entries_.end()) {
    Entry& entry = it->second;
    HETSCALE_REQUIRE(entry.type() == type,
                     "metric '" + name +
                         "' is already registered with another type");
    if (type == Type::kHistogram) {
      const auto& histogram = *std::get<std::unique_ptr<Histogram>>(
          entry.value);
      HETSCALE_REQUIRE(bounds != nullptr &&
                           histogram.upper_bounds() == *bounds,
                       "histogram '" + name +
                           "' is already registered with other buckets");
    }
    return entry;
  }
  Entry entry;
  entry.name = name;
  entry.labels = key_labels;
  switch (type) {
    case Type::kCounter: entry.value = Counter{}; break;
    case Type::kGauge: entry.value = Gauge{}; break;
    case Type::kHistogram:
      entry.value = std::make_unique<Histogram>(*bounds);
      break;
  }
  return entries_.emplace(Key{name, std::move(key_labels)}, std::move(entry))
      .first->second;
}

Counter& MetricsRegistry::counter(const std::string& name, Labels labels) {
  return std::get<Counter>(
      entry_for(name, std::move(labels), Type::kCounter, nullptr).value);
}

Gauge& MetricsRegistry::gauge(const std::string& name, Labels labels) {
  return std::get<Gauge>(
      entry_for(name, std::move(labels), Type::kGauge, nullptr).value);
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> bounds,
                                      Labels labels) {
  return *std::get<std::unique_ptr<Histogram>>(
      entry_for(name, std::move(labels), Type::kHistogram, &bounds).value);
}

const MetricsRegistry::Entry* MetricsRegistry::find(const std::string& name,
                                                    Labels labels,
                                                    Type type) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(Key{name, canonical(std::move(labels))});
  if (it == entries_.end() || it->second.type() != type) return nullptr;
  return &it->second;
}

const Counter* MetricsRegistry::find_counter(const std::string& name,
                                             Labels labels) const {
  const Entry* entry = find(name, std::move(labels), Type::kCounter);
  return entry ? &std::get<Counter>(entry->value) : nullptr;
}

const Histogram* MetricsRegistry::find_histogram(const std::string& name,
                                                 Labels labels) const {
  const Entry* entry = find(name, std::move(labels), Type::kHistogram);
  return entry ? std::get<std::unique_ptr<Histogram>>(entry->value).get()
               : nullptr;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

void MetricsRegistry::for_each(
    const std::function<void(const Entry&)>& visit) const {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, entry] : entries_) visit(entry);
}

void MetricsRegistry::write_prometheus(std::ostream& os) const {
  std::string last_name;
  for_each([&](const Entry& entry) {
    if (entry.name != last_name) {
      const char* type = "untyped";
      switch (entry.type()) {
        case Type::kCounter: type = "counter"; break;
        case Type::kGauge: type = "gauge"; break;
        case Type::kHistogram: type = "histogram"; break;
      }
      os << "# TYPE " << entry.name << " " << type << "\n";
      last_name = entry.name;
    }
    const std::string labels = prom_labels(entry.labels);
    switch (entry.type()) {
      case Type::kCounter:
        os << entry.name << labels << " "
           << prom_number(std::get<Counter>(entry.value).value) << "\n";
        break;
      case Type::kGauge:
        os << entry.name << labels << " "
           << prom_number(std::get<Gauge>(entry.value).value) << "\n";
        break;
      case Type::kHistogram: {
        const auto& histogram =
            *std::get<std::unique_ptr<Histogram>>(entry.value);
        // Prometheus bucket counts are cumulative and end at le="+Inf".
        std::uint64_t cumulative = 0;
        Labels bucket_labels = entry.labels;
        bucket_labels.emplace_back("le", "");
        for (std::size_t i = 0; i <= histogram.upper_bounds().size(); ++i) {
          cumulative += histogram.bucket_counts()[i];
          bucket_labels.back().second =
              i < histogram.upper_bounds().size()
                  ? prom_number(histogram.upper_bounds()[i])
                  : "+Inf";
          os << entry.name << "_bucket" << prom_labels(bucket_labels) << " "
             << cumulative << "\n";
        }
        os << entry.name << "_sum" << labels << " "
           << prom_number(histogram.sum()) << "\n";
        os << entry.name << "_count" << labels << " " << histogram.count()
           << "\n";
        break;
      }
    }
  });
}

void MetricsRegistry::write_json(std::ostream& os) const {
  os << "[";
  bool first = true;
  for_each([&](const Entry& entry) {
    if (!first) os << ",";
    first = false;
    os << "\n    {\"name\": \"" << json_escape(entry.name)
       << "\", \"labels\": ";
    write_json_labels(os, entry.labels);
    switch (entry.type()) {
      case Type::kCounter:
        os << ", \"type\": \"counter\", \"value\": "
           << json_number_or_null(std::get<Counter>(entry.value).value);
        break;
      case Type::kGauge:
        os << ", \"type\": \"gauge\", \"value\": "
           << json_number_or_null(std::get<Gauge>(entry.value).value);
        break;
      case Type::kHistogram: {
        const auto& histogram =
            *std::get<std::unique_ptr<Histogram>>(entry.value);
        os << ", \"type\": \"histogram\", \"buckets\": [";
        for (std::size_t i = 0; i <= histogram.upper_bounds().size(); ++i) {
          if (i > 0) os << ",";
          os << "{\"le\": "
             << (i < histogram.upper_bounds().size()
                     ? json_number_or_null(histogram.upper_bounds()[i])
                     : std::string("null"))
             << ", \"count\": " << histogram.bucket_counts()[i] << "}";
        }
        os << "], \"sum\": " << json_number_or_null(histogram.sum())
           << ", \"count\": " << histogram.count();
        break;
      }
    }
    os << "}";
  });
  os << (first ? "]" : "\n  ]");
}

}  // namespace hetscale::obs
