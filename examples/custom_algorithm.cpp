// Custom algorithm — bringing your own code to the metric.
//
// Two levels of extension are shown:
//   1. Writing a message-passing program directly against vmpi::Comm (a
//      ring-pipelined token reduction), running it on a heterogeneous
//      machine, and reading the timing decomposition.
//   2. Describing the Jacobi stencil kernel as a scal::AlgoSpec and pairing
//      it with a cluster in a scal::ClusterCombination, so the whole
//      analysis pipeline (iso-solver, trend line, ψ) applies to it — the
//      generality the paper's conclusion asks for.
#include <iostream>
#include <memory>
#include <vector>

#include "hetscale/algos/jacobi.hpp"
#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/scal/iso_solver.hpp"
#include "hetscale/scal/metrics.hpp"
#include "hetscale/support/units.hpp"
#include "hetscale/vmpi/machine.hpp"

namespace {

using namespace hetscale;
using des::Task;

// ---- Level 1: a hand-written SPMD program ----
// Each rank computes on its share, then a token circulates the ring
// accumulating a sum — a pattern none of the built-in algorithms use.
Task<void> ring_reduce(vmpi::Comm& comm, double flops_per_rank) {
  constexpr int kTag = 42;
  co_await comm.compute(flops_per_rank);
  const int next = (comm.rank() + 1) % comm.size();
  const int prev = (comm.rank() - 1 + comm.size()) % comm.size();
  if (comm.size() == 1) co_return;
  if (comm.rank() == 0) {
    co_await comm.send(next, kTag, 8.0, vmpi::Payload(1.0));
    const auto back = co_await comm.recv(prev, kTag);
    std::cout << "  ring token accumulated " << back.payload.scalar()
              << " over " << comm.size() << " ranks\n";
  } else {
    const auto token = co_await comm.recv(prev, kTag);
    co_await comm.send(next, kTag, 8.0,
                       vmpi::Payload(token.payload.scalar() + 1.0));
  }
}

}  // namespace

int main() {
  // A deliberately lopsided machine: one V210 (both CPUs) + two SunBlades.
  machine::Cluster cluster;
  cluster.add_node("v210", machine::sunwulf::v210_spec());
  cluster.add_node("blade-1", machine::sunwulf::sunblade_spec());
  cluster.add_node("blade-2", machine::sunwulf::sunblade_spec());

  std::cout << "Level 1: custom SPMD program on " << cluster.summary()
            << "\n";
  auto machine = vmpi::Machine::switched(cluster);
  const auto run = machine.run([](vmpi::Comm& comm) -> Task<void> {
    return ring_reduce(comm, units::mflop(30.0));
  });
  std::cout << "  elapsed " << run.elapsed << " s; critical-path overhead "
            << run.overhead_s() << " s\n\n";

  // ---- Level 2: the Jacobi stencil as a Combination ----
  // An AlgoSpec is everything a combination needs to know about its
  // algorithm: a measurement-store key naming every parameter that changes
  // the timing, the workload W(N), and one run on a fresh machine.
  // (scal::jacobi_algo(50) is the registry's spelling of this spec.)
  std::cout << "Level 2: Jacobi 2-D stencil through the metric pipeline\n";
  constexpr std::int64_t kSweeps = 50;
  const scal::AlgoSpec jacobi{
      "jacobi:sweeps=50",
      [](std::int64_t n) { return algos::jacobi_workload(n, kSweeps); },
      [](vmpi::Machine& machine, std::int64_t n,
         const std::vector<double>& speeds, bool with_data) {
        const auto result = algos::run_parallel_jacobi(
            machine, {.n = n,
                      .sweeps = kSweeps,
                      .with_data = with_data,
                      .speeds = speeds});
        return scal::AlgoRun{result.work_flops, result.run.elapsed,
                             result.run.overhead_s()};
      }};

  scal::ClusterCombination::Config small_config;
  small_config.cluster = cluster;
  scal::ClusterCombination small("jacobi-small", std::move(small_config),
                                 jacobi);

  machine::Cluster big_cluster = cluster;
  big_cluster.add_node("blade-3", machine::sunwulf::sunblade_spec());
  big_cluster.add_node("blade-4", machine::sunwulf::sunblade_spec());
  big_cluster.add_node("v210-2", machine::sunwulf::v210_spec());
  scal::ClusterCombination::Config big_config;
  big_config.cluster = std::move(big_cluster);
  scal::ClusterCombination big("jacobi-big", std::move(big_config), jacobi);

  constexpr double kTarget = 0.25;
  // Jacobi needs at least one interior grid row per rank, so the search
  // floor depends on the system size.
  scal::IsoSolveOptions small_opts;
  small_opts.n_min = small.processor_count() + 2;
  scal::IsoSolveOptions big_opts;
  big_opts.n_min = big.processor_count() + 2;
  run::Runner runner(1);
  const auto small_point =
      scal::required_problem_size(small, kTarget, runner, small_opts);
  const auto big_point =
      scal::required_problem_size(big, kTarget, runner, big_opts);
  std::cout << "  E_s = " << kTarget << " needs grid N = " << small_point.n
            << " on the small system, N = " << big_point.n
            << " on the doubled one\n";
  const double psi = scal::isospeed_efficiency_scalability(
      small.marked_speed(), small.work(small_point.n), big.marked_speed(),
      big.work(big_point.n));
  std::cout << "  psi(small -> big) = " << psi
            << "  (nearest-neighbour exchange scales gently: compare GE/MM "
               "in examples/ge_vs_mm)\n";
  return 0;
}
