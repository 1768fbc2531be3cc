// In-memory span recorder for the benchmark driver.
//
// Spans are recorded by the driver around its calls into each library layer
// (setup calls, Scenario::run and render, run_parallel_*, obs exports, the
// checks). They stay in memory and are written once, at exit, as a Chrome
// trace. When tracing is off every Span is a no-op, so the untimed and timed
// paths of a workload run the same code.
//
// The driver is single-threaded above the library, so the recorder keeps
// one stack of open spans and needs no locking.
#pragma once

#include <chrono>
#include <cstddef>
#include <iomanip>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace hetscale::bench {

class Tracer {
 public:
  /// One closed (or still open) span. Times are seconds since the tracer
  /// was created; `parent` is the index of the enclosing span, or -1.
  struct Record {
    std::string name;
    std::string layer;
    double start_s = 0.0;
    double end_s = 0.0;
    int parent = -1;
  };

  /// RAII handle: closes its span when destroyed.
  class Span {
   public:
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    ~Span() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }

   private:
    friend class Tracer;
    Span(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;
    int index_;
  };

  Tracer(bool enabled, std::string run_id)
      : enabled_(enabled),
        run_id_(std::move(run_id)),
        origin_(std::chrono::steady_clock::now()) {}

  bool enabled() const { return enabled_; }

  /// Open a span named `name` in `layer` (a library module name, or
  /// "check" for the driver's own correctness checks).
  [[nodiscard]] Span span(std::string name, std::string layer) {
    if (!enabled_) return Span(nullptr, -1);
    records_.push_back(Record{std::move(name), std::move(layer), now_s(), 0.0,
                              open_.empty() ? -1 : open_.back()});
    open_.push_back(static_cast<int>(records_.size()) - 1);
    return Span(this, open_.back());
  }

  /// Self time of each span: its duration minus the part its direct
  /// children cover (children never overlap on a single thread).
  std::vector<double> self_seconds() const {
    std::vector<double> self(records_.size());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      self[i] = records_[i].end_s - records_[i].start_s;
    }
    for (const Record& r : records_) {
      if (r.parent >= 0) {
        self[static_cast<std::size_t>(r.parent)] -= r.end_s - r.start_s;
      }
    }
    return self;
  }

  /// Summed self time per layer.
  std::map<std::string, double> self_by_layer() const {
    std::map<std::string, double> out;
    const std::vector<double> self = self_seconds();
    for (std::size_t i = 0; i < records_.size(); ++i) {
      out[records_[i].layer] += self[i];
    }
    return out;
  }

  /// Chrome trace-event JSON ("X" complete events, microseconds), one
  /// event per span with its parent, run id and self time in `args`.
  void write_chrome_trace(std::ostream& os) const {
    const std::vector<double> self = self_seconds();
    os << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      os << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << r.name
         << "\",\"cat\":\"" << r.layer << "\",\"ph\":\"X\",\"pid\":1,"
         << "\"tid\":1,\"ts\":" << r.start_s * 1e6
         << ",\"dur\":" << (r.end_s - r.start_s) * 1e6
         << ",\"args\":{\"span\":" << i << ",\"parent\":" << r.parent
         << ",\"run_id\":\"" << run_id_ << "\",\"self_us\":" << self[i] * 1e6
         << "}}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  }

 private:
  double now_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  void close(int index) {
    records_[static_cast<std::size_t>(index)].end_s = now_s();
    open_.pop_back();
  }

  bool enabled_;
  std::string run_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<int> open_;
};

}  // namespace hetscale::bench
