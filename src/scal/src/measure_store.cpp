#include "hetscale/scal/measure_store.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <string_view>
#include <utility>
#include <vector>

#include "hetscale/support/error.hpp"

namespace hetscale::scal {

namespace {

/// Format version: bump to invalidate every previously saved store.
constexpr int kFormatVersion = 1;
constexpr const char* kHeader = "hetscale-measure-store";

/// %.17g — enough digits to round-trip any double exactly.
std::string exact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Parse all of `text` as a T: no whitespace, no leftovers, in range.
template <class T>
bool parse_whole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

void append_exact(std::string& s, double v) {
  s += exact(v);
}

/// Keys embed free-form strings (node names, models); squash the
/// characters the line format reserves.
void append_sanitized(std::string& s, std::string_view text) {
  for (char c : text) {
    s += (c == '\t' || c == '\n' || c == '\r') ? ' ' : c;
  }
}

}  // namespace

MeasurementStore& MeasurementStore::global() {
  static MeasurementStore store;
  return store;
}

bool MeasurementStore::enabled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return enabled_;
}

void MeasurementStore::set_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mutex_);
  enabled_ = enabled;
}

bool MeasurementStore::try_get(const std::string& key, std::int64_t n,
                               Measurement& out) {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto by_key = entries_.find(key);
  if (by_key != entries_.end()) {
    const auto by_n = by_key->second.find(n);
    if (by_n != by_key->second.end()) {
      ++hits_;
      out = by_n->second;
      return true;
    }
  }
  ++misses_;
  return false;
}

void MeasurementStore::put(const std::string& key, std::int64_t n,
                           const Measurement& m) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_[key][n] = m;
}

std::size_t MeasurementStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& [key, by_n] : entries_) total += by_n.size();
  return total;
}

std::uint64_t MeasurementStore::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t MeasurementStore::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

void MeasurementStore::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_.clear();
  hits_ = 0;
  misses_ = 0;
}

void MeasurementStore::save(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  os << kHeader << " v" << kFormatVersion << '\n';
  for (const auto& [key, by_n] : entries_) {
    for (const auto& [n, m] : by_n) {
      os << key << '\t' << n << '\t' << exact(m.work_flops) << '\t'
         << exact(m.seconds) << '\t' << exact(m.speed_flops) << '\t'
         << exact(m.speed_efficiency) << '\t' << exact(m.overhead_s) << '\n';
    }
  }
}

bool MeasurementStore::save_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  save(out);
  return out.good();
}

bool MeasurementStore::load(std::istream& is, std::string* error) {
  const auto fail = [error](std::string why) {
    if (error != nullptr) *error = std::move(why);
    return false;
  };
  const std::string header =
      std::string(kHeader) + " v" + std::to_string(kFormatVersion);
  std::string line;
  if (!std::getline(is, line) || line != header) {
    return fail("not a '" + header + "' file");
  }
  // Parse everything before touching the store: one bad line rejects the
  // whole file.
  std::map<std::string, std::map<std::int64_t, Measurement>> parsed;
  for (int line_no = 2; std::getline(is, line); ++line_no) {
    if (line.empty()) continue;
    const auto bad = [&](const std::string& what) {
      return fail("line " + std::to_string(line_no) + ": " + what);
    };
    // key \t n \t work \t seconds \t speed \t efficiency \t overhead
    std::vector<std::string_view> fields;
    std::string_view rest(line);
    for (std::size_t tab; (tab = rest.find('\t')) != std::string_view::npos;
         rest.remove_prefix(tab + 1)) {
      fields.push_back(rest.substr(0, tab));
    }
    fields.push_back(rest);
    if (fields.size() != 7) {
      return bad("expected 7 tab-separated fields, found " +
                 std::to_string(fields.size()));
    }
    Measurement m;
    if (!parse_whole(fields[1], m.n) || m.n < 1) {
      return bad("problem size '" + std::string(fields[1]) +
                 "' is not an integer >= 1");
    }
    double* const values[] = {&m.work_flops, &m.seconds, &m.speed_flops,
                              &m.speed_efficiency, &m.overhead_s};
    for (std::size_t v = 0; v < 5; ++v) {
      if (!parse_whole(fields[v + 2], *values[v]) ||
          !std::isfinite(*values[v])) {
        return bad("field " + std::to_string(v + 3) + " '" +
                   std::string(fields[v + 2]) + "' is not a finite number");
      }
    }
    parsed[std::string(fields[0])][m.n] = m;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [key, by_n] : parsed) {
    for (const auto& [n, m] : by_n) entries_[key][n] = m;
  }
  return true;
}

bool MeasurementStore::load_file(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return false;
  return load(in);
}

std::string config_fingerprint(std::string_view algo_key,
                               const machine::Cluster& cluster,
                               NetworkKind network,
                               const net::NetworkParams& params,
                               bool with_data,
                               const vmpi::CollectiveTuning& tuning) {
  std::string key;
  key.reserve(256);
  append_sanitized(key, algo_key);
  key += with_data ? "|data|" : "|timing|";
  key += network == NetworkKind::kSharedBus ? "bus" : "switch";
  key += "|net=";
  append_exact(key, params.remote.latency_s);
  key += ',';
  append_exact(key, params.remote.bandwidth_Bps);
  key += ',';
  append_exact(key, params.local.latency_s);
  key += ',';
  append_exact(key, params.local.bandwidth_Bps);
  key += ',';
  append_exact(key, params.per_message_overhead_s);
  if (params.recv_overhead_s != 0.0) {
    // Appended conditionally so every pre-existing cache key is unchanged.
    key += ",recv=";
    append_exact(key, params.recv_overhead_s);
  }
  for (const auto& node : cluster.nodes()) {
    key += "|node=";
    append_sanitized(key, node.name);
    key += '/';
    append_sanitized(key, node.spec.model);
    key += '/';
    key += std::to_string(node.spec.cpus);
    key += '/';
    key += std::to_string(node.cpus_used);
    key += '/';
    append_exact(key, node.spec.cpu_rate_flops);
    key += '/';
    append_exact(key, node.spec.memory_bytes);
    key += '/';
    append_exact(key, node.spec.memory_bandwidth_Bps);
    key += "/bias:";
    for (double b : node.spec.benchmark_bias) {
      append_exact(key, b);
      key += ';';
    }
  }
  // Legacy-flat adds nothing, so fingerprints minted before collective
  // tuning existed still resolve; any other family is spelled out.
  if (!(tuning == vmpi::CollectiveTuning::legacy_flat())) {
    key += "|coll=";
    key += std::to_string(static_cast<int>(tuning.small_bcast));
    key += ',';
    key += std::to_string(static_cast<int>(tuning.large_bcast));
    key += ',';
    append_exact(key, tuning.large_bcast_threshold_bytes);
    key += ',';
    key += std::to_string(static_cast<int>(tuning.barrier));
    key += ',';
    key += std::to_string(static_cast<int>(tuning.gather));
    key += ',';
    key += std::to_string(static_cast<int>(tuning.scatter));
    key += ',';
    key += std::to_string(static_cast<int>(tuning.reduce));
    key += ',';
    key += std::to_string(static_cast<int>(tuning.allreduce));
  }
  return key;
}

}  // namespace hetscale::scal
