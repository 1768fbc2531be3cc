#include "hetscale/predict/probe.hpp"

#include <gtest/gtest.h>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/support/args.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::predict {
namespace {

ProbeConfig default_probe() {
  ProbeConfig config;
  config.node = machine::sunwulf::sunblade_spec();
  return config;
}

TEST(Probe, SendTimeMatchesNetworkClosedForm) {
  const auto config = default_probe();
  const double bytes = 5e4;
  const double measured = measure_send_time(config, bytes);
  // Switched fabric (ProbeConfig's default), idle links: overhead + wire +
  // latency.
  const double expected = config.params.per_message_overhead_s +
                          bytes / config.params.remote.bandwidth_Bps +
                          config.params.remote.latency_s;
  EXPECT_NEAR(measured, expected, 1e-12);
}

TEST(Probe, SendTimeIsAffineInBytes) {
  const auto config = default_probe();
  const double t1 = measure_send_time(config, 1e3);
  const double t2 = measure_send_time(config, 2e3);
  const double t3 = measure_send_time(config, 3e3);
  EXPECT_NEAR(t3 - t2, t2 - t1, 1e-12);
}

TEST(Probe, BcastTimeLinearInRanks) {
  const auto config = default_probe();
  const double t5 = measure_bcast_time(config, 5, 1e4);
  const double t9 = measure_bcast_time(config, 9, 1e4);
  // Flat tree: the root's (p-1) sends serialize on its injection port.
  EXPECT_NEAR(t9 / t5, 8.0 / 4.0, 0.1);
}

TEST(Probe, BarrierTimeAffineInRanks) {
  const auto config = default_probe();
  const double t3 = measure_barrier_time(config, 3);
  const double t6 = measure_barrier_time(config, 6);
  const double t12 = measure_barrier_time(config, 12);
  EXPECT_GT(t6, t3);
  // Affine law: (t12 - t6)/(t6 - t3) = (11-5)/(5-2) = 2.
  EXPECT_NEAR((t12 - t6) / (t6 - t3), 2.0, 0.25);
}

TEST(Probe, FittedModelReproducesProbes) {
  const auto config = default_probe();
  const auto comm = probe_comm_model(config);
  // The fit is exact at the probe sizes by construction; third sizes
  // (below / above the long-message threshold respectively) confirm
  // linearity of the underlying machine.
  EXPECT_NEAR(comm.t_send(5e4), measure_send_time(config, 5e4), 1e-9);
  EXPECT_NEAR(comm.t_bcast(config.collective_ranks, 4e3),
              measure_bcast_time(config, config.collective_ranks, 4e3),
              1e-6);
  // The long-message law's per-byte slope carries a (p-1)/p factor the
  // affine model folds into β, so cross-(p, m) reproduction is approximate.
  const double measured_large =
      measure_bcast_time(config, config.collective_ranks, 5e5);
  EXPECT_NEAR(comm.t_bcast_large(config.collective_ranks, 5e5),
              measured_large, 0.10 * measured_large);
  EXPECT_NEAR(comm.t_barrier(config.collective_ranks),
              measure_barrier_time(config, config.collective_ranks), 1e-9);
}

TEST(Probe, ModelExtrapolatesAcrossRankCounts) {
  const auto config = default_probe();
  const auto comm = probe_comm_model(config);
  const double measured = measure_bcast_time(config, 17, 1e4);
  EXPECT_NEAR(comm.t_bcast(17, 1e4), measured, 0.12 * measured);
}

TEST(Probe, PositiveParameters) {
  const auto comm = probe_comm_model(default_probe());
  EXPECT_GT(comm.send_alpha_s, 0.0);
  EXPECT_GT(comm.send_beta_s_per_byte, 0.0);
  EXPECT_GT(comm.bcast_const_s, 0.0);
  EXPECT_GT(comm.bcast_alpha_s, 0.0);
  EXPECT_GT(comm.bcast_beta_s_per_byte, 0.0);
  EXPECT_GT(comm.barrier_const_s, 0.0);
  EXPECT_GT(comm.barrier_unit_s, 0.0);
}

TEST(Probe, SystemModelForClusterSumsMarkedSpeeds) {
  const auto comm = probe_comm_model(default_probe());
  const auto cluster = machine::sunwulf::ge_ensemble(4);
  const auto system = system_model_for(cluster, comm);
  EXPECT_EQ(system.p, cluster.processor_count());
  EXPECT_GT(system.marked_speed, 0.0);
  EXPECT_GT(system.root_speed, 0.0);
  EXPECT_LT(system.root_speed, system.marked_speed);
}

/// Sets the thread count new machines inherit, restoring it on exit.
class ScopedSimThreads {
 public:
  explicit ScopedSimThreads(int threads) : previous_(global_sim_threads()) {
    set_global_sim_threads(threads);
  }
  ~ScopedSimThreads() { set_global_sim_threads(previous_); }
  ScopedSimThreads(const ScopedSimThreads&) = delete;
  ScopedSimThreads& operator=(const ScopedSimThreads&) = delete;

 private:
  int previous_;
};

TEST(Probe, CollectiveProbesAreSimThreadInvariant) {
  // At 8 sim-threads the probe's 8 ranks run on 8 partition threads; each
  // call must still report the one-thread completion time bit for bit.
  const auto config = default_probe();
  double bcast = 0.0;
  double barrier = 0.0;
  {
    ScopedSimThreads one(1);
    bcast = measure_bcast_time(config, 8, 1e3);
    barrier = measure_barrier_time(config, 8);
  }
  ScopedSimThreads eight(8);
  for (int call = 0; call < 300; ++call) {
    ASSERT_EQ(measure_bcast_time(config, 8, 1e3), bcast) << "call " << call;
    ASSERT_EQ(measure_barrier_time(config, 8), barrier) << "call " << call;
  }
}

TEST(Probe, InvalidConfigRejected) {
  auto config = default_probe();
  config.bytes_large = config.bytes_small;
  EXPECT_THROW(probe_comm_model(config), PreconditionError);
  EXPECT_THROW(measure_bcast_time(default_probe(), 1, 8.0),
               PreconditionError);
}

}  // namespace
}  // namespace hetscale::predict
