// Exact timelines for both parallel GE programs. A Timeline is what one run
// leaves behind: its elapsed virtual time, the DES events it took, the
// flops it charged, the network's message and byte totals, and a hash of
// the bits of its solution. Each case compares it bit for bit against
// pinned values, so any change to the messages a program sends, their
// sizes or order, its charges or its arithmetic moves at least one field.
// The rounded goldens cannot see such a change, and pivoted GE with data is
// in no golden at all.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "hetscale/algos/ge.hpp"
#include "hetscale/algos/ge_pivot.hpp"
#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/vmpi/machine.hpp"

namespace hetscale::algos {
namespace {

struct Timeline {
  double elapsed = 0.0;
  std::uint64_t events = 0;
  double charged_flops = 0.0;
  std::uint64_t messages = 0;
  double bytes = 0.0;
  std::uint64_t solution_hash = 0;

  friend bool operator==(const Timeline&, const Timeline&) = default;
};

/// The two machines every case runs on.
enum class Fabric {
  kBus,     ///< the five-rank GE ensemble on a shared bus (two share a node)
  kSwitch,  ///< the six-node MM ensemble, switched (one rank per node)
};

/// A fresh machine on `fabric`, running the legacy_flat collectives when
/// `flat`, else the tree family.
vmpi::Machine pin_machine(Fabric fabric, bool flat) {
  const auto tuning = flat ? vmpi::CollectiveTuning::legacy_flat()
                           : vmpi::CollectiveTuning::tree();
  if (fabric == Fabric::kBus) {
    net::NetworkParams params;
    params.remote = {1e-4, 12.5e6};
    params.per_message_overhead_s = 2e-5;
    return vmpi::Machine::shared_bus(machine::sunwulf::ge_ensemble(4), params,
                                     tuning);
  }
  return vmpi::Machine::switched(machine::sunwulf::mm_ensemble(6), {},
                                 tuning);
}

std::string pin_machine_name(Fabric fabric, bool flat) {
  std::string name = fabric == Fabric::kBus ? "bus" : "switch";
  name += flat ? "_flat" : "_tree";
  return name;
}

/// FNV-1a over the bit patterns of `values`, one 64-bit word per element.
std::uint64_t hash_bits(const std::vector<double>& values) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const double v : values) {
    hash ^= std::bit_cast<std::uint64_t>(v);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

/// The timeline of a finished run on `machine`.
Timeline timeline_of(const vmpi::Machine& machine, const vmpi::RunResult& run,
                     double charged_flops,
                     const std::vector<double>& solution) {
  return {run.elapsed,          machine.events_processed(),
          charged_flops,        run.network.messages,
          run.network.bytes,    hash_bits(solution)};
}

/// Prints a Timeline as the initializer that pins it (hex floats, so a
/// failure message can be pasted back exactly).
void PrintTo(const Timeline& t, std::ostream* os) {
  char text[256];
  std::snprintf(text, sizeof(text), "{%a, %llu, %a, %llu, %a, 0x%llxULL}",
                t.elapsed, static_cast<unsigned long long>(t.events),
                t.charged_flops, static_cast<unsigned long long>(t.messages),
                t.bytes, static_cast<unsigned long long>(t.solution_hash));
  *os << text;
}

// Both GE variants' timelines, pinned to the bits on two clusters under
// both collective families. n = 1 puts every row on one rank; 7 is one
// partial block of eight pivots; 65 and 257 cross several blocks and end on
// a partial one.
struct GePin {
  bool pipelined = false;
  Fabric fabric = Fabric::kBus;
  bool flat = false;  ///< legacy_flat collectives, else tree
  std::int64_t n = 0;
  Timeline expected;
};

void PrintTo(const GePin& pin, std::ostream* os) {
  *os << (pin.pipelined ? "pipelined_" : "paper_")
      << pin_machine_name(pin.fabric, pin.flat) << "_n" << pin.n;
}

class GeTimeline : public ::testing::TestWithParam<GePin> {};
INSTANTIATE_TEST_SUITE_P(
    Pins, GeTimeline,
    ::testing::Values(
        GePin{false, Fabric::kBus, true, 1,
              {0x1.e7e07762b59f3p-11, 62, 0x1.8p+1, 28, 0x1.2p+8,
               0x33723d55136de9b7ULL}},
        GePin{false, Fabric::kBus, true, 7,
              {0x1.0e06e2de239fbp-8, 275, 0x1.5ep+8, 124, 0x1.64p+11,
               0x7d9ee0da874f9756ULL}},
        GePin{false, Fabric::kBus, true, 65,
              {0x1.6314553138ba6p-5, 2431, 0x1.7a318p+17, 1052, 0x1.05cp+17,
               0xbe44c7fcd4e6d30dULL}},
        GePin{false, Fabric::kBus, true, 257,
              {0x1.64b3054e0fc96p-2, 9576, 0x1.5e6306p+23, 4124, 0x1.ddaep+20,
               0x41b95eb1ff337fdULL}},
        GePin{false, Fabric::kBus, false, 1,
              {0x1.16fb589af5886p-10, 59, 0x1.8p+1, 28, 0x1.2p+8,
               0x33723d55136de9b7ULL}},
        GePin{false, Fabric::kBus, false, 7,
              {0x1.38a0c2698c445p-8, 266, 0x1.5ep+8, 124, 0x1.64p+11,
               0x7d9ee0da874f9756ULL}},
        GePin{false, Fabric::kBus, false, 65,
              {0x1.86fe5b33e9b2cp-5, 2363, 0x1.7a318p+17, 1052, 0x1.05cp+17,
               0xbe44c7fcd4e6d30dULL}},
        GePin{false, Fabric::kBus, false, 257,
              {0x1.719ae8457cc8dp-2, 9271, 0x1.5e6306p+23, 4124, 0x1.ddaep+20,
               0x41b95eb1ff337fdULL}},
        GePin{false, Fabric::kSwitch, true, 1,
              {0x1.6b4f57d91bbd4p-9, 74, 0x1.8p+1, 35, 0x1.6p+8,
               0x33723d55136de9b7ULL}},
        GePin{false, Fabric::kSwitch, true, 7,
              {0x1.9443552f149a4p-7, 330, 0x1.5ep+8, 155, 0x1.b5p+11,
               0x7d9ee0da874f9756ULL}},
        GePin{false, Fabric::kSwitch, true, 65,
              {0x1.d981ad1115ea9p-4, 2966, 0x1.7a318p+17, 1315, 0x1.38cp+17,
               0xbe44c7fcd4e6d30dULL}},
        GePin{false, Fabric::kSwitch, true, 257,
              {0x1.3b1347d645ab5p-1, 11724, 0x1.5e6306p+23, 5155, 0x1.1c1p+21,
               0x41b95eb1ff337fdULL}},
        GePin{false, Fabric::kSwitch, false, 1,
              {0x1.1bfee2a0b56f3p-9, 75, 0x1.8p+1, 35, 0x1.6p+8,
               0x33723d55136de9b7ULL}},
        GePin{false, Fabric::kSwitch, false, 7,
              {0x1.4446c5687def6p-7, 340, 0x1.5ep+8, 155, 0x1.b5p+11,
               0x7d9ee0da874f9756ULL}},
        GePin{false, Fabric::kSwitch, false, 65,
              {0x1.7829c688c5d06p-4, 3030, 0x1.7a318p+17, 1315, 0x1.38cp+17,
               0xbe44c7fcd4e6d30dULL}},
        GePin{false, Fabric::kSwitch, false, 257,
              {0x1.f5c051c0baad5p-2, 11987, 0x1.5e6306p+23, 5155, 0x1.1c1p+21,
               0x41b95eb1ff337fdULL}},
        GePin{true, Fabric::kBus, true, 1,
              {0x1.f7ba071faa23ap-12, 34, 0x1.8p+1, 16, 0x1.4p+7,
               0x33723d55136de9b7ULL}},
        GePin{true, Fabric::kBus, true, 7,
              {0x1.353c75bb40a59p-10, 85, 0x1.5ep+8, 40, 0x1.e8p+10,
               0x7d9ee0da874f9756ULL}},
        GePin{true, Fabric::kBus, true, 65,
              {0x1.bbe4787e9e12ep-7, 714, 0x1.7a318p+17, 272, 0x1.ebp+16,
               0xbe44c7fcd4e6d30dULL}},
        GePin{true, Fabric::kBus, true, 257,
              {0x1.49acb62a29283p-3, 2457, 0x1.5e6306p+23, 1040, 0x1.d5a6p+20,
               0x41b95eb1ff337fdULL}},
        GePin{true, Fabric::kBus, false, 1,
              {0x1.e169b8a8a3b1fp-12, 33, 0x1.8p+1, 16, 0x1.4p+7,
               0x33723d55136de9b7ULL}},
        GePin{true, Fabric::kBus, false, 7,
              {0x1.2fa8621d7f092p-10, 84, 0x1.5ep+8, 40, 0x1.e8p+10,
               0x7d9ee0da874f9756ULL}},
        GePin{true, Fabric::kBus, false, 65,
              {0x1.bb31f60ae5df5p-7, 714, 0x1.7a318p+17, 272, 0x1.ebp+16,
               0xbe44c7fcd4e6d30dULL}},
        GePin{true, Fabric::kBus, false, 257,
              {0x1.49a18e02eda4fp-3, 2457, 0x1.5e6306p+23, 1040, 0x1.d5a6p+20,
               0x41b95eb1ff337fdULL}},
        GePin{true, Fabric::kSwitch, true, 1,
              {0x1.3c989d2e2a456p-10, 41, 0x1.8p+1, 20, 0x1.8p+7,
               0x33723d55136de9b7ULL}},
        GePin{true, Fabric::kSwitch, true, 7,
              {0x1.1c465962e8d54p-9, 96, 0x1.5ep+8, 50, 0x1.29p+11,
               0x7d9ee0da874f9756ULL}},
        GePin{true, Fabric::kSwitch, true, 65,
              {0x1.2c04d0e707be4p-6, 843, 0x1.7a318p+17, 340, 0x1.247p+17,
               0xbe44c7fcd4e6d30dULL}},
        GePin{true, Fabric::kSwitch, true, 257,
              {0x1.4de1937bd2ccap-3, 3265, 0x1.5e6306p+23, 1300, 0x1.170bp+21,
               0x41b95eb1ff337fdULL}},
        GePin{true, Fabric::kSwitch, false, 1,
              {0x1.077f0ae0e03abp-10, 41, 0x1.8p+1, 20, 0x1.8p+7,
               0x33723d55136de9b7ULL}},
        GePin{true, Fabric::kSwitch, false, 7,
              {0x1.01b9903c43cfcp-9, 96, 0x1.5ep+8, 50, 0x1.29p+11,
               0x7d9ee0da874f9756ULL}},
        GePin{true, Fabric::kSwitch, false, 65,
              {0x1.28b337c2331d9p-6, 843, 0x1.7a318p+17, 340, 0x1.247p+17,
               0xbe44c7fcd4e6d30dULL}},
        GePin{true, Fabric::kSwitch, false, 257,
              {0x1.4d77605738388p-3, 3265, 0x1.5e6306p+23, 1300, 0x1.170bp+21,
               0x41b95eb1ff337fdULL}}));

TEST_P(GeTimeline, MatchesPinnedBits) {
  const GePin& pin = GetParam();
  auto machine = pin_machine(pin.fabric, pin.flat);
  GeOptions options;
  options.n = pin.n;
  options.pipelined = pin.pipelined;
  const auto result = run_parallel_ge(machine, options);
  EXPECT_EQ(timeline_of(machine, result.run, result.charged_flops,
                        result.solution),
            pin.expected);
}

// Pivoted GE's timelines with and without data, pinned to the bits on two
// clusters under both collective families. The data-free runs draw their
// pivots from a hash, so they model a schedule the data runs do not
// replay; both are pinned. With panel 8, n = 7 is one partial panel and 65
// and 257 cross several panels and end on a partial one.
struct GePivotPin {
  bool with_data = true;
  Fabric fabric = Fabric::kBus;
  bool flat = false;  ///< legacy_flat collectives, else tree
  std::int64_t n = 0;
  Timeline expected;
};

void PrintTo(const GePivotPin& pin, std::ostream* os) {
  *os << (pin.with_data ? "data_" : "timing_")
      << pin_machine_name(pin.fabric, pin.flat) << "_n" << pin.n;
}

class GePivotTimeline : public ::testing::TestWithParam<GePivotPin> {};
INSTANTIATE_TEST_SUITE_P(
    Pins, GePivotTimeline,
    ::testing::Values(
        GePivotPin{true, Fabric::kBus, true, 1,
                   {0x1.c672be779d0cfp-11, 72, 0x1p+3, 28, 0x1.2p+8,
                    0x33723d55136de9b7ULL}},
        GePivotPin{true, Fabric::kBus, true, 7,
                   {0x1.121ef6f9f88fep-8, 314, 0x1.1fp+9, 124, 0x1.b8p+11,
                    0x7d9ee0da874f9756ULL}},
        GePivotPin{true, Fabric::kBus, true, 65,
                   {0x1.5eed3534260f7p-5, 2784, 0x1.f664p+17, 1052, 0x1.13cp+17,
                    0xbe44c7fcd4e6d30dULL}},
        GePivotPin{true, Fabric::kBus, true, 257,
                   {0x1.602abe8230fbap-2, 10879, 0x1.7ee61p+23, 4124,
                    0x1.e4aep+20, 0x41b95eb1ff337fdULL}},
        GePivotPin{true, Fabric::kBus, false, 1,
                   {0x1.a651e1b3366b1p-11, 68, 0x1p+3, 28, 0x1.3p+8,
                    0x33723d55136de9b7ULL}},
        GePivotPin{true, Fabric::kBus, false, 7,
                   {0x1.28f179fde50eep-8, 305, 0x1.1fp+9, 124, 0x1.c6p+11,
                    0x7d9ee0da874f9756ULL}},
        GePivotPin{true, Fabric::kBus, false, 65,
                   {0x1.8fac9792e753p-5, 2727, 0x1.f664p+17, 1052, 0x1.15c8p+17,
                    0xbe44c7fcd4e6d30dULL}},
        GePivotPin{true, Fabric::kBus, false, 257,
                   {0x1.73ed5f9b00b64p-2, 10711, 0x1.7ee61p+23, 4124,
                    0x1.e5afp+20, 0x41b95eb1ff337fdULL}},
        GePivotPin{true, Fabric::kSwitch, true, 1,
                   {0x1.7ef8820970ef9p-9, 86, 0x1.2p+3, 35, 0x1.6p+8,
                    0x33723d55136de9b7ULL}},
        GePivotPin{true, Fabric::kSwitch, true, 7,
                   {0x1.9b57072dfbep-7, 376, 0x1.378p+9, 155, 0x1.0fp+12,
                    0x7d9ee0da874f9756ULL}},
        GePivotPin{true, Fabric::kSwitch, true, 65,
                   {0x1.d074865e64e45p-4, 3360, 0x1.0a324p+18, 1315,
                    0x1.4a4p+17, 0xbe44c7fcd4e6d30dULL}},
        GePivotPin{true, Fabric::kSwitch, true, 257,
                   {0x1.2a6f3ace0be4dp-1, 13190, 0x1.86c612p+23, 5155,
                    0x1.207p+21, 0x41b95eb1ff337fdULL}},
        GePivotPin{true, Fabric::kSwitch, false, 1,
                   {0x1.228c9b5b7c801p-9, 87, 0x1.2p+3, 35, 0x1.8p+8,
                    0x33723d55136de9b7ULL}},
        GePivotPin{true, Fabric::kSwitch, false, 7,
                   {0x1.4804143df90bep-7, 382, 0x1.378p+9, 155, 0x1.1dp+12,
                    0x7d9ee0da874f9756ULL}},
        GePivotPin{true, Fabric::kSwitch, false, 65,
                   {0x1.7bc867bc329dap-4, 3452, 0x1.0a324p+18, 1315,
                    0x1.4e5p+17, 0xbe44c7fcd4e6d30dULL}},
        GePivotPin{true, Fabric::kSwitch, false, 257,
                   {0x1.fc03d0f33fb0ep-2, 13593, 0x1.86c612p+23, 5155,
                    0x1.2171p+21, 0x41b95eb1ff337fdULL}},
        GePivotPin{false, Fabric::kBus, true, 1,
                   {0x1.c672be779d0cfp-11, 72, 0x1p+3, 28, 0x1.2p+8,
                    0xcbf29ce484222325ULL}},
        GePivotPin{false, Fabric::kBus, true, 7,
                   {0x1.5057ecb9d8ba4p-8, 334, 0x1.1fp+9, 134, 0x1.13p+12,
                    0xcbf29ce484222325ULL}},
        GePivotPin{false, Fabric::kBus, true, 65,
                   {0x1.b1e04c428a835p-5, 2949, 0x1.f664p+17, 1142, 0x1.758p+17,
                    0xcbf29ce484222325ULL}},
        GePivotPin{false, Fabric::kBus, true, 257,
                   {0x1.ba5e0a091815ap-2, 11494, 0x1.7ee61p+23, 4534,
                    0x1.5b048p+21, 0xcbf29ce484222325ULL}},
        GePivotPin{false, Fabric::kBus, false, 1,
                   {0x1.a651e1b3366b1p-11, 68, 0x1p+3, 28, 0x1.3p+8,
                    0xcbf29ce484222325ULL}},
        GePivotPin{false, Fabric::kBus, false, 7,
                   {0x1.7356f8ddbefedp-8, 321, 0x1.1fp+9, 134, 0x1.1ap+12,
                    0xcbf29ce484222325ULL}},
        GePivotPin{false, Fabric::kBus, false, 65,
                   {0x1.eeb40f0087155p-5, 2870, 0x1.f664p+17, 1142,
                    0x1.7788p+17, 0xcbf29ce484222325ULL}},
        GePivotPin{false, Fabric::kBus, false, 257,
                   {0x1.d478738accbecp-2, 11319, 0x1.7ee61p+23, 4534,
                    0x1.5b85p+21, 0xcbf29ce484222325ULL}},
        GePivotPin{false, Fabric::kSwitch, true, 1,
                   {0x1.7ef8820970ef9p-9, 86, 0x1.2p+3, 35, 0x1.6p+8,
                    0xcbf29ce484222325ULL}},
        GePivotPin{false, Fabric::kSwitch, true, 7,
                   {0x1.ace09c6d93a56p-7, 391, 0x1.378p+9, 165, 0x1.46p+12,
                    0xcbf29ce484222325ULL}},
        GePivotPin{false, Fabric::kSwitch, true, 65,
                   {0x1.f52cf77e8da41p-4, 3513, 0x1.0a324p+18, 1417,
                    0x1.b8d8p+17, 0xcbf29ce484222325ULL}},
        GePivotPin{false, Fabric::kSwitch, true, 257,
                   {0x1.498d734850ccep-1, 13808, 0x1.86c612p+23, 5567,
                    0x1.89a78p+21, 0xcbf29ce484222325ULL}},
        GePivotPin{false, Fabric::kSwitch, false, 1,
                   {0x1.228c9b5b7c801p-9, 87, 0x1.2p+3, 35, 0x1.8p+8,
                    0xcbf29ce484222325ULL}},
        GePivotPin{false, Fabric::kSwitch, false, 7,
                   {0x1.684c8921d0b6ep-7, 397, 0x1.378p+9, 165, 0x1.54p+12,
                    0xcbf29ce484222325ULL}},
        GePivotPin{false, Fabric::kSwitch, false, 65,
                   {0x1.a8ddb4299e864p-4, 3618, 0x1.0a324p+18, 1417,
                    0x1.bce8p+17, 0xcbf29ce484222325ULL}},
        GePivotPin{false, Fabric::kSwitch, false, 257,
                   {0x1.2327ed1b1a38bp-1, 14245, 0x1.86c612p+23, 5567,
                    0x1.8aa88p+21, 0xcbf29ce484222325ULL}}));

TEST_P(GePivotTimeline, MatchesPinnedBits) {
  const GePivotPin& pin = GetParam();
  auto machine = pin_machine(pin.fabric, pin.flat);
  GePivotOptions options;
  options.n = pin.n;
  options.panel = 8;
  options.with_data = pin.with_data;
  const auto result = run_parallel_ge_pivot(machine, options);
  EXPECT_EQ(timeline_of(machine, result.run, result.charged_flops,
                        result.solution),
            pin.expected);
}

}  // namespace
}  // namespace hetscale::algos
