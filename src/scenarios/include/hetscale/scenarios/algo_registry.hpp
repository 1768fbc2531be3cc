// The algorithm registry — every built-in algorithm under its --algo name.
//
// An entry is one algorithm's whole description: its scal::AlgoSpec with
// the default parameters, the paper ensemble ladder `series` and
// `predict` put it on, its default isospeed target and, where the paper's
// §4.5 pipeline covers it, the analytic Theorem-1 overhead model that
// `predict` solves and the sizes the model-zoo fit study measures. The
// spec and the model of an entry are built from the same parameters, so
// the analytic side always describes the algorithm that is measured.
//
// It is the CLI's `--algo` vocabulary; adding an algorithm means one
// entry here plus its kernel under algos/ (and a predict::OverheadModel if
// it is to be predicted and fitted).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "hetscale/machine/cluster.hpp"
#include "hetscale/predict/models.hpp"
#include "hetscale/scal/algo_spec.hpp"

namespace hetscale::scenarios {

/// One named algorithm of the registry.
struct AlgoEntry {
  std::string name;     ///< the CLI's --algo spelling
  scal::AlgoSpec spec;  ///< with the default parameters
  /// The paper ensemble ladder (machine::sunwulf::ge_ensemble or
  /// mm_ensemble) that `series` and `predict` put the algorithm on.
  machine::Cluster (*ensemble)(int nodes);
  double target_es;  ///< default isospeed-efficiency target
  /// The analytic model of `spec`, or null for algorithms without one.
  std::shared_ptr<const predict::OverheadModel> model = nullptr;
  /// The fit study's problem sizes; empty exactly when `model` is null.
  std::vector<std::int64_t> fit_sizes = {};
};

/// Every built-in algorithm, in --algo listing order.
const std::vector<AlgoEntry>& algo_registry();

/// The entry named `name`; throws PreconditionError listing the registered
/// names when there is none.
const AlgoEntry& find_algo(std::string_view name);

/// The registered names, comma-separated.
std::string algo_names();

/// The entries with an analytic model — what `predict` and the fit study
/// cover — in registry order.
const std::vector<const AlgoEntry*>& zoo_algos();

/// The entry named `name` if it has an analytic model; throws
/// PreconditionError naming zoo_algos() otherwise.
const AlgoEntry& find_zoo_algo(std::string_view name);

}  // namespace hetscale::scenarios
