// Communication-parameter probes (paper §4.5: "We have measured the
// parameters ... on Sunwulf").
//
// The CommModel is *measured* from micro-benchmarks run through the full
// simulator stack — not read out of the network model's internals — so the
// prediction pipeline exercises the same measure-then-model workflow the
// paper used on real hardware. Tests cross-validate the fitted parameters
// against the network model's closed forms.
#pragma once

#include "hetscale/machine/cluster.hpp"
#include "hetscale/net/network.hpp"
#include "hetscale/predict/models.hpp"
#include "hetscale/scal/combination.hpp"

namespace hetscale::predict {

struct ProbeConfig {
  machine::NodeSpec node;  ///< node type the probe ensembles are built from
  scal::NetworkKind network = scal::NetworkKind::kSwitched;
  net::NetworkParams params{};
  int collective_ranks = 8;    ///< p used for bcast/barrier probes
  /// Short-message fit abscissae (must stay below
  /// vmpi::kLargeBcastThresholdBytes so one algorithm is fitted).
  double bytes_small = 1.0e3;
  double bytes_large = 8.0e3;
  /// Long-message fit abscissae (at/above vmpi::kLargeBcastThresholdBytes).
  double bytes_xl_small = 1.0e5;
  double bytes_xl_large = 1.0e6;
};

/// Measure one-way point-to-point time for a message of `bytes` (2 ranks).
double measure_send_time(const ProbeConfig& config, double bytes);

/// Measure flat-tree broadcast completion (max over ranks) for `bytes`.
double measure_bcast_time(const ProbeConfig& config, int ranks, double bytes);

/// Measure barrier completion (max over ranks).
double measure_barrier_time(const ProbeConfig& config, int ranks);

/// Fit the full CommModel from the probes above.
CommModel probe_comm_model(const ProbeConfig& config);

/// Assemble the SystemModel of a cluster: p, marked speed (Definition 2),
/// rank-0 speed, and the given measured communication model.
SystemModel system_model_for(const machine::Cluster& cluster,
                             const CommModel& comm);

}  // namespace hetscale::predict
