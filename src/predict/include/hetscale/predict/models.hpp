// Analytic overhead models + the prediction pipeline (paper §4.5).
//
// The paper predicts GE's scalability by (a) measuring the machine's
// communication parameters (T_send, T_bcast, T_barrier, unit compute time),
// (b) writing the algorithm's total overhead To(N, p) in terms of them, and
// (c) solving the isospeed-efficiency condition for the required N' —
// Corollary 2 then gives ψ = To/To'. This module is that machinery,
// generalized over algorithms via OverheadModel.
#pragma once

#include <cstdint>
#include <vector>

#include "hetscale/machine/cluster.hpp"

namespace hetscale::predict {

/// Measured communication parameters of the machine (probe.hpp fills this
/// in from simulated micro-benchmarks, as the paper did on Sunwulf).
struct CommModel {
  double send_alpha_s = 0.0;     ///< T_send(m) = α + β·m
  double send_beta_s_per_byte = 0.0;
  double bcast_const_s = 0.0;    ///< T_bcast(p, m) = c_b + (p-1)(α_b + β_b·m)
  double bcast_alpha_s = 0.0;
  double bcast_beta_s_per_byte = 0.0;
  /// Long-message broadcast (van de Geijn): T = c_L + (p-1)·α_L + β_L·m —
  /// the per-byte cost no longer multiplies (p-1).
  double bcast_large_const_s = 0.0;
  double bcast_large_alpha_s = 0.0;
  double bcast_large_beta_s_per_byte = 0.0;
  double barrier_const_s = 0.0;  ///< T_barrier(p) = c_bar + (p-1)·u
  double barrier_unit_s = 0.0;

  double t_send(double bytes) const;
  double t_bcast(int p, double bytes) const;
  double t_bcast_large(int p, double bytes) const;
  double t_barrier(int p) const;
};

/// Everything the models need to know about one system configuration.
struct SystemModel {
  int p = 0;                        ///< process (processor) count
  double marked_speed = 0.0;        ///< C (flop/s)
  double root_speed = 0.0;          ///< rank 0's speed — runs the seq. part
  CommModel comm;
};

/// An algorithm's analytic cost decomposition T = (W - W_seq)/C + t0 + To.
class OverheadModel {
 public:
  virtual ~OverheadModel() = default;

  /// W(N).
  virtual double work(double n) const = 0;

  /// Flops of the sequential (unparallelizable) portion.
  virtual double sequential_flops(double n) const = 0;

  /// t0 — execution time of the sequential portion on the system.
  double sequential_time(double n, const SystemModel& system) const;

  /// To — total communication overhead at problem size N on the system.
  virtual double overhead(double n, const SystemModel& system) const = 0;
};

/// Parallel GE (paper §4.5): α = O(1/N) from back substitution;
/// To = T_bcast(meta) + (p-1)·(T_send(dist) + T_send(coll))
///      + Σ_i [T_bcast(p, 8(N-i)) + T_bcast(p, 8) + T_barrier(p)].
class GeOverheadModel final : public OverheadModel {
 public:
  double work(double n) const override;
  double sequential_flops(double n) const override;
  double overhead(double n, const SystemModel& system) const override;
};

/// Parallel MM: α = 0 (Corollary 2 applies);
/// To = T_bcast(meta) + (p-1)·T_send(avg A block) + T_bcast(p, 8N²)
///      + (p-1)·T_send(avg C block).
class MmOverheadModel final : public OverheadModel {
 public:
  double work(double n) const override;
  double sequential_flops(double n) const override;
  double overhead(double n, const SystemModel& system) const override;
};

/// Parallel Jacobi 2-D stencil (algos/jacobi.hpp): α = 0;
/// To = T_bcast(meta) + (p-1)·(T_send(band out) + T_send(band back))
///      + sweeps·2·T_send(8N) — per sweep, the ghost-row exchanges of the
/// band boundaries run pairwise in parallel, so the critical path pays one
/// row down plus one row up.
class JacobiOverheadModel final : public OverheadModel {
 public:
  explicit JacobiOverheadModel(std::int64_t sweeps);
  double work(double n) const override;
  double sequential_flops(double n) const override;
  double overhead(double n, const SystemModel& system) const override;

 private:
  std::int64_t sweeps_;
};

/// Iterated SpMV (algos/spmv.hpp): α = 0, but the kernel streams CSR at
/// kSpmvStreamEfficiency of the dense marked rate, so the stall time
/// (W/C)·(1/η - 1) is charged as overhead on top of the communication:
/// To = stall + T_bcast(meta) + (p-1)·T_send(avg CSR block) + x broadcast
///      + sweeps·(p-1)·T_send(8N/p) ring allgather steps.
/// The workload uses the synthetic matrix's expected 10 nonzeros per row.
class SpmvOverheadModel final : public OverheadModel {
 public:
  explicit SpmvOverheadModel(std::int64_t sweeps);
  double work(double n) const override;
  double sequential_flops(double n) const override;
  double overhead(double n, const SystemModel& system) const override;

 private:
  std::int64_t sweeps_;
};

/// Predicted execution time T(N) = (W - W_seq)/C + t0 + To.
double predicted_time(const OverheadModel& model, const SystemModel& system,
                      double n);

/// Predicted speed-efficiency E_s(N) = W / (T·C).
double predicted_speed_efficiency(const OverheadModel& model,
                                  const SystemModel& system, double n);

/// Solve E_s(N) = target for N (smallest integer size); the paper's
/// Table 6. Throws NumericError if the target is unreachable below n_max.
std::int64_t predicted_required_size(const OverheadModel& model,
                                     const SystemModel& system,
                                     double target_es,
                                     double n_max = 1e7);

/// Predicted ψ between two systems at a target efficiency: solve the
/// required sizes on both, then apply Theorem 1 with the model's t0/To.
/// The paper's Table 7.
double predicted_scalability(const OverheadModel& model,
                             const SystemModel& from, const SystemModel& to,
                             double target_es);

}  // namespace hetscale::predict
