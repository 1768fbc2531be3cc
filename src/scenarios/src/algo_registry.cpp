#include "hetscale/scenarios/algo_registry.hpp"

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/scenarios/paper.hpp"
#include "hetscale/support/error.hpp"

namespace hetscale::scenarios {

namespace {

/// Sweeps of the iterative kernels (Jacobi, SpMV). Each spec and its
/// analytic model are built from this one constant.
constexpr std::int64_t kSweeps = 50;

}  // namespace

const std::vector<AlgoEntry>& algo_registry() {
  using machine::sunwulf::ge_ensemble;
  using machine::sunwulf::mm_ensemble;
  using std::make_shared;
  // Targets: the paper's for GE and MM (Tables 3-5), GE's for the other
  // compute-bound kernels, and a low bar for SpMV, whose CSR streaming
  // stall caps E_s well below the dense targets.
  static const std::vector<AlgoEntry> registry{
      {"ge", scal::ge_algo(), ge_ensemble, kGeTargetEs,
       make_shared<const predict::GeOverheadModel>(), {64, 128, 256, 384, 512}},
      {"mm", scal::mm_algo(), mm_ensemble, kMmTargetEs,
       make_shared<const predict::MmOverheadModel>(), {32, 64, 128, 192, 256}},
      {"sort", scal::sort_algo(), ge_ensemble, kGeTargetEs},
      {"jacobi", scal::jacobi_algo(kSweeps), ge_ensemble, kGeTargetEs,
       make_shared<const predict::JacobiOverheadModel>(kSweeps),
       {64, 128, 256, 384, 512}},
      {"summa", scal::summa_algo(), mm_ensemble, kMmTargetEs},
      {"ge_pivot", scal::ge_pivot_algo(), ge_ensemble, kGeTargetEs},
      {"spmv", scal::spmv_algo(kSweeps), mm_ensemble, 0.05,
       make_shared<const predict::SpmvOverheadModel>(kSweeps),
       {128, 256, 512, 768, 1024}},
      {"spmv-hom",
       scal::spmv_algo(kSweeps, algos::SpmvDistribution::kHomogeneousBlock),
       mm_ensemble, 0.05},
  };
  return registry;
}

const AlgoEntry& find_algo(std::string_view name) {
  for (const auto& entry : algo_registry()) {
    if (entry.name == name) return entry;
  }
  throw PreconditionError("unknown algorithm '" + std::string(name) +
                          "' (expected one of: " + algo_names() + ")");
}

std::string algo_names() {
  std::string names;
  for (const auto& entry : algo_registry()) {
    if (!names.empty()) names += ", ";
    names += entry.name;
  }
  return names;
}

const std::vector<const AlgoEntry*>& zoo_algos() {
  static const std::vector<const AlgoEntry*> modelled = [] {
    std::vector<const AlgoEntry*> entries;
    for (const auto& entry : algo_registry()) {
      if (entry.model) entries.push_back(&entry);
    }
    return entries;
  }();
  return modelled;
}

const AlgoEntry& find_zoo_algo(std::string_view name) {
  std::string supported;
  for (const AlgoEntry* entry : zoo_algos()) {
    if (entry->name == name) return *entry;
    if (!supported.empty()) supported += ", ";
    supported += entry->name;
  }
  throw PreconditionError("no analytic overhead model for algorithm '" +
                          std::string(name) + "' (supported: " + supported +
                          ")");
}

}  // namespace hetscale::scenarios
