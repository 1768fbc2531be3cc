#include "hetscale/obs/report.hpp"

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "hetscale/obs/format.hpp"

namespace hetscale::obs {

namespace {

/// Bucket bounds for per-run elapsed virtual time, in seconds.
const std::vector<double> kElapsedBuckets = {1e-3, 1e-2, 0.1, 1.0,
                                             10.0,  100.0, 1000.0};

/// Fold one run into the registry. Called in sorted-run order only.
void fold_run(MetricsRegistry& m, const RunProfile& run) {
  m.counter("hetscale_runs_total").inc();
  m.counter("hetscale_elapsed_virtual_seconds_total").add(run.elapsed_s);
  m.histogram("hetscale_run_elapsed_seconds", kElapsedBuckets)
      .observe(run.elapsed_s);

  m.counter("hetscale_budget_seconds_total", {{"phase", "compute"}})
      .add(run.budget.compute_s);
  m.counter("hetscale_budget_seconds_total", {{"phase", "comm"}})
      .add(run.budget.comm_s);
  m.counter("hetscale_budget_seconds_total", {{"phase", "sequential"}})
      .add(run.budget.sequential_s);
  m.counter("hetscale_budget_seconds_total", {{"phase", "fault"}})
      .add(run.budget.fault_s);
  m.counter("hetscale_budget_seconds_total", {{"phase", "residual"}})
      .add(run.budget.residual_s);

  m.counter("hetscale_vmpi_compute_seconds_total").add(run.compute_s);
  m.counter("hetscale_vmpi_comm_seconds_total").add(run.comm_s);
  m.counter("hetscale_vmpi_messages_total")
      .add(static_cast<double>(run.messages));
  m.counter("hetscale_vmpi_bytes_total").add(run.bytes);
  m.counter("hetscale_vmpi_retries_total")
      .add(static_cast<double>(run.retries));
  m.counter("hetscale_vmpi_backoff_seconds_total").add(run.backoff_s);

  m.counter("hetscale_des_events_total")
      .add(static_cast<double>(run.des_events));
  m.gauge("hetscale_des_queue_depth_max")
      .set_max(static_cast<double>(run.des_queue_depth_max));
  if (run.frame_live_peak > 0) {
    m.gauge("hetscale_des_frame_live_peak")
        .set_max(static_cast<double>(run.frame_live_peak));
  }

  m.counter("hetscale_net_wire_seconds_total").add(run.wire_s);
  m.counter("hetscale_net_contention_seconds_total").add(run.contention_s);
  for (const LinkProfile& link : run.links) {
    const Labels by_node = {{"node", std::to_string(link.node)}};
    m.counter("hetscale_net_link_bytes_total", by_node).add(link.bytes);
    m.counter("hetscale_net_link_wire_seconds_total", by_node)
        .add(link.wire_s);
    m.counter("hetscale_net_link_stall_seconds_total", by_node)
        .add(link.stall_s);
  }

  if (!run.comm_cells.empty()) {
    // The report keeps the per-phase rollup; the full (src, dst, phase)
    // matrix stays with `hetscale_cli analyze`, which ranks its cells.
    struct PhaseTotals {
      double messages = 0.0;
      double bytes = 0.0;
      double wait_s = 0.0;
    };
    std::map<int, PhaseTotals> phases;
    for (const CommCell& cell : run.comm_cells) {
      PhaseTotals& t = phases[cell.phase];
      t.messages += static_cast<double>(cell.messages);
      t.bytes += cell.bytes;
      t.wait_s += cell.wait_s;
    }
    for (const auto& [phase, totals] : phases) {
      const Labels by_phase = {
          {"phase", comm_phase_name(static_cast<CommPhase>(phase))}};
      m.counter("hetscale_comm_messages_total", by_phase)
          .add(totals.messages);
      m.counter("hetscale_comm_bytes_total", by_phase).add(totals.bytes);
      m.counter("hetscale_comm_wait_seconds_total", by_phase)
          .add(totals.wait_s);
    }
  }

  if (run.critical_path != CriticalPathSummary{}) {
    m.counter("hetscale_critical_path_seconds_total",
              {{"segment", "compute"}})
        .add(run.critical_path.compute_s);
    m.counter("hetscale_critical_path_seconds_total", {{"segment", "comm"}})
        .add(run.critical_path.comm_s);
    m.counter("hetscale_critical_path_seconds_total", {{"segment", "wait"}})
        .add(run.critical_path.wait_s);
    m.counter("hetscale_critical_path_seconds_total", {{"segment", "fault"}})
        .add(run.critical_path.fault_s);
  }

  if (run.des_queue != DesQueueStats{}) {
    m.counter("hetscale_des_queue_pushes_total")
        .add(static_cast<double>(run.des_queue.pushes));
    m.counter("hetscale_des_queue_pops_total")
        .add(static_cast<double>(run.des_queue.pops));
    m.counter("hetscale_des_queue_far_inserts_total")
        .add(static_cast<double>(run.des_queue.far_inserts));
    m.counter("hetscale_des_queue_rebuilds_total")
        .add(static_cast<double>(run.des_queue.rebuilds));
    std::uint64_t peak = 0;
    for (const DesQueueStats::Sample& s : run.des_queue.occupancy) {
      peak = std::max(peak, s.depth);
    }
    m.gauge("hetscale_des_queue_occupancy_peak")
        .set_max(static_cast<double>(peak));
  }

  if (run.fault != FaultProfileTotals{}) {
    m.counter("hetscale_fault_seconds_total", {{"cause", "slowdown"}})
        .add(run.fault.slowdown_s);
    m.counter("hetscale_fault_seconds_total", {{"cause", "checkpoint"}})
        .add(run.fault.checkpoint_s);
    m.counter("hetscale_fault_seconds_total", {{"cause", "rework"}})
        .add(run.fault.rework_s);
    m.counter("hetscale_fault_seconds_total", {{"cause", "retry"}})
        .add(run.fault.retry_s);
    m.counter("hetscale_fault_events_total", {{"kind", "checkpoint"}})
        .add(static_cast<double>(run.fault.checkpoints));
    m.counter("hetscale_fault_events_total", {{"kind", "crash"}})
        .add(static_cast<double>(run.fault.crashes));
    m.counter("hetscale_fault_events_total", {{"kind", "retry"}})
        .add(static_cast<double>(run.fault.retries));
  }
}

}  // namespace

Report::Report(const Profiler& profiler, ReportOptions options)
    : subject_(std::move(options.subject)) {
  const std::vector<RunProfile> runs = profiler.sorted_runs();
  runs_ = runs.size();
  for (const RunProfile& run : runs) {
    elapsed_s_ += run.elapsed_s;
    budget_ += run.budget;
    fold_run(metrics_, run);
  }
}

Report Profiler::report(const ReportOptions& options) const {
  return Report(*this, options);
}

Report Profiler::report() const { return Report(*this, ReportOptions{}); }

void Report::to_json(std::ostream& os) const {
  os << "{\n";
  os << "  \"schema\": \"hetscale.obs.report/v1\",\n";
  os << "  \"subject\": \"" << json_escape(subject_) << "\",\n";
  os << "  \"runs\": " << runs_ << ",\n";
  os << "  \"elapsed_virtual_s\": " << json_number_or_null(elapsed_s_)
     << ",\n";
  os << "  \"time_budget\": {";
  os << "\"compute_s\": " << json_number_or_null(budget_.compute_s) << ", ";
  os << "\"comm_s\": " << json_number_or_null(budget_.comm_s) << ", ";
  os << "\"sequential_s\": " << json_number_or_null(budget_.sequential_s)
     << ", ";
  os << "\"fault_s\": " << json_number_or_null(budget_.fault_s) << ", ";
  os << "\"residual_s\": " << json_number_or_null(budget_.residual_s);
  os << "},\n";
  os << "  \"measured\": {";
  os << "\"t0_s\": " << json_number_or_null(budget_.measured_t0()) << ", ";
  os << "\"to_s\": " << json_number_or_null(budget_.measured_to());
  os << "},\n";
  os << "  \"metrics\": ";
  metrics_.write_json(os);
  os << "\n}\n";
}

void Report::to_prometheus(std::ostream& os) const {
  metrics_.write_prometheus(os);
}

Table Report::to_table() const {
  Table table("Time budget  " + subject_ + "  (" + std::to_string(runs_) +
              " run" + (runs_ == 1 ? "" : "s") + ", virtual seconds)");
  table.set_header({"Phase", "Seconds", "Share"});
  const double elapsed = elapsed_s_;
  auto share = [&](double v) {
    return elapsed > 0.0 ? Table::fixed(100.0 * v / elapsed, 1) + "%" : "-";
  };
  table.add_row({"compute", Table::num(budget_.compute_s, 6),
                 share(budget_.compute_s)});
  table.add_row(
      {"comm", Table::num(budget_.comm_s, 6), share(budget_.comm_s)});
  table.add_row({"sequential (t0)", Table::num(budget_.sequential_s, 6),
                 share(budget_.sequential_s)});
  table.add_row(
      {"fault", Table::num(budget_.fault_s, 6), share(budget_.fault_s)});
  table.add_row({"residual", Table::num(budget_.residual_s, 6),
                 share(budget_.residual_s)});
  table.add_row({"elapsed", Table::num(elapsed, 6), share(elapsed)});
  table.add_row({"measured To", Table::num(budget_.measured_to(), 6),
                 share(budget_.measured_to())});
  return table;
}

}  // namespace hetscale::obs
