// MeasurementStore: fingerprint sharing across display names, disk
// round-trip with exact doubles, version gating, and warm-starting a fit
// study from a persisted cache.
#include "hetscale/scal/measure_store.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "hetscale/machine/sunwulf.hpp"
#include "hetscale/predict/zoo.hpp"
#include "hetscale/run/runner.hpp"
#include "hetscale/scal/fit_study.hpp"
#include "hetscale/scenarios/algo_registry.hpp"

namespace hetscale::scal {
namespace {

/// The store under test is process-global; snapshot and restore it around
/// each test so the suite can run in any order within one process.
class MeasureStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = MeasurementStore::global().enabled();
    MeasurementStore::global().clear();
    MeasurementStore::global().set_enabled(true);
  }
  void TearDown() override {
    MeasurementStore::global().clear();
    MeasurementStore::global().set_enabled(was_enabled_);
  }

 private:
  bool was_enabled_ = true;
};

ClusterCombination::Config ge2_config() {
  ClusterCombination::Config config;
  config.cluster = machine::sunwulf::ge_ensemble(2);
  config.with_data = false;
  return config;
}

Measurement sample(std::int64_t n) {
  Measurement m;
  m.n = n;
  m.work_flops = 1.0e9 + static_cast<double>(n);
  m.seconds = 0.125 * static_cast<double>(n);
  m.speed_flops = m.work_flops / m.seconds;
  m.speed_efficiency = 0.1234567890123456789;  // exercise %.17g round-trip
  m.overhead_s = 1e-17;
  return m;
}

TEST_F(MeasureStoreTest, PutThenGet) {
  auto& store = MeasurementStore::global();
  store.put("key", 64, sample(64));
  Measurement out;
  ASSERT_TRUE(store.try_get("key", 64, out));
  EXPECT_EQ(out.n, 64);
  EXPECT_DOUBLE_EQ(out.seconds, sample(64).seconds);
  EXPECT_FALSE(store.try_get("key", 65, out));
  EXPECT_FALSE(store.try_get("other", 64, out));
  EXPECT_EQ(store.hits(), 1u);
  EXPECT_EQ(store.misses(), 2u);
}

TEST_F(MeasureStoreTest, SaveLoadRoundTripsBitExactly) {
  auto& store = MeasurementStore::global();
  store.put("ge|timing|switch", 64, sample(64));
  store.put("ge|timing|switch", 128, sample(128));
  store.put("a key with spaces / punctuation|x", 7, sample(7));
  std::ostringstream saved;
  store.save(saved);

  store.clear();
  std::istringstream loaded(saved.str());
  ASSERT_TRUE(store.load(loaded));
  ASSERT_EQ(store.size(), 3u);
  Measurement out;
  ASSERT_TRUE(store.try_get("ge|timing|switch", 128, out));
  const Measurement expected = sample(128);
  // Bit-exact: %.17g round-trips every double.
  EXPECT_EQ(out.work_flops, expected.work_flops);
  EXPECT_EQ(out.seconds, expected.seconds);
  EXPECT_EQ(out.speed_flops, expected.speed_flops);
  EXPECT_EQ(out.speed_efficiency, expected.speed_efficiency);
  EXPECT_EQ(out.overhead_s, expected.overhead_s);
}

TEST_F(MeasureStoreTest, LoadRejectsVersionMismatch) {
  auto& store = MeasurementStore::global();
  std::istringstream wrong_version("hetscale-measure-store v999\nkey\t1\t1\t1\t1\t1\t1\n");
  EXPECT_FALSE(store.load(wrong_version));
  EXPECT_EQ(store.size(), 0u);
  std::istringstream garbage("not a store at all\n");
  EXPECT_FALSE(store.load(garbage));
  EXPECT_EQ(store.size(), 0u);
}

/// Load `text` into the (empty) global store; the failure reason, if any.
std::string load_text(const std::string& text) {
  std::istringstream in(text);
  std::string why;
  if (MeasurementStore::global().load(in, &why)) return "";
  EXPECT_FALSE(why.empty()) << "a failed load must say why";
  return why.empty() ? "?" : why;
}

constexpr const char* kGoodHeader = "hetscale-measure-store v1\n";
constexpr const char* kGoodLine = "key\t64\t1\t2\t0.5\t0.25\t1e-3\n";

TEST_F(MeasureStoreTest, LoadAcceptsAWellFormedFile) {
  EXPECT_EQ(load_text(std::string(kGoodHeader) + kGoodLine + "\n"), "");
  EXPECT_EQ(MeasurementStore::global().size(), 1u);
}

TEST_F(MeasureStoreTest, LoadRejectsATruncatedTailWhole) {
  // Two good lines, then a line cut mid-record: nothing may load.
  const std::string text = std::string(kGoodHeader) + kGoodLine +
                           "other\t32\t1\t2\t0.5\t0.25\t0\n" +
                           "key\t128\t1\t2";
  EXPECT_NE(load_text(text).find("line 4"), std::string::npos);
  EXPECT_EQ(MeasurementStore::global().size(), 0u)
      << "the lines before the bad one must not be half-loaded";
}

TEST_F(MeasureStoreTest, LoadRejectsGarbageFields) {
  const std::string header = kGoodHeader;
  EXPECT_NE(load_text(header + "key\t64\tabc\t2\t0.5\t0.25\t0\n"), "");
  EXPECT_NE(load_text(header + "key\t64\t1x\t2\t0.5\t0.25\t0\n"), "");
  EXPECT_NE(load_text(header + "key\t64\t\t2\t0.5\t0.25\t0\n"), "");
  EXPECT_NE(load_text(header + "key\t6.5\t1\t2\t0.5\t0.25\t0\n"), "");
  EXPECT_NE(load_text(header + "key\t0\t1\t2\t0.5\t0.25\t0\n"), "");
  EXPECT_NE(load_text(header + "key\t 64\t1\t2\t0.5\t0.25\t0\n"), "");
  EXPECT_EQ(MeasurementStore::global().size(), 0u);
}

TEST_F(MeasureStoreTest, LoadRejectsNonFiniteValues) {
  const std::string header = kGoodHeader;
  EXPECT_NE(load_text(header + "key\t64\tnan\t2\t0.5\t0.25\t0\n"), "");
  EXPECT_NE(load_text(header + "key\t64\t1\tinf\t0.5\t0.25\t0\n"), "");
  EXPECT_NE(load_text(header + "key\t64\t1\t2\t0.5\t0.25\t1e999\n"),
            "");
  EXPECT_EQ(MeasurementStore::global().size(), 0u);
}

TEST_F(MeasureStoreTest, LoadRejectsAnExtraField) {
  const std::string why = load_text(std::string(kGoodHeader) +
                                    "key\t64\t1\t2\t0.5\t0.25\t0\t9\n");
  EXPECT_NE(why.find("found 8"), std::string::npos) << why;
  EXPECT_EQ(MeasurementStore::global().size(), 0u);
}

TEST_F(MeasureStoreTest, GoodFileRoundTripsExactly) {
  auto& store = MeasurementStore::global();
  store.put("ge|timing|switch", 64, sample(64));
  store.put("mm|timing|bus", 7, sample(7));
  std::ostringstream first;
  store.save(first);
  store.clear();
  EXPECT_EQ(load_text(first.str()), "");
  std::ostringstream second;
  store.save(second);
  EXPECT_EQ(second.str(), first.str());
}

TEST_F(MeasureStoreTest, RegistryKeysArePinned) {
  // Changing any of these keys orphans every persisted --measure-cache
  // entry for the algorithm: they are part of the on-disk format.
  const std::pair<const char*, const char*> pinned[] = {
      {"ge", "ge"},
      {"mm", "mm"},
      {"sort", "sort:1"},
      {"jacobi", "jacobi:sweeps=50"},
      {"summa", "summa:tile=64"},
      {"ge_pivot", "ge_pivot:panel=32"},
      {"spmv", "spmv:sweeps=50,dist=het"},
      {"spmv-hom", "spmv:sweeps=50,dist=hom"},
  };
  using scenarios::algo_registry;
  using scenarios::find_algo;
  ASSERT_EQ(algo_registry().size(), std::size(pinned));
  const auto config = ge2_config();
  for (const auto& [name, key] : pinned) {
    const std::string fingerprint =
        config_fingerprint(find_algo(name).spec.key, config.cluster,
                           config.network, config.net_params,
                           config.with_data, config.tuning);
    EXPECT_TRUE(fingerprint.starts_with(std::string(key) + "|timing|"))
        << name << " -> " << fingerprint;
  }
}

TEST_F(MeasureStoreTest, FingerprintSharesAcrossDisplayNames) {
  // table3 / table4 / table7 all simulate GE on the same ensembles under
  // different scenario names: the fingerprint must make them share.
  ClusterCombination first("GE required-rank", ge2_config(), ge_algo());
  ClusterCombination second("GE scalability", ge2_config(), ge_algo());
  auto& store = MeasurementStore::global();

  const Measurement& a = first.measure(64);
  const std::uint64_t misses_after_first = store.misses();
  const Measurement& b = second.measure(64);
  EXPECT_EQ(store.misses(), misses_after_first)
      << "the second combination must hit the shared store, not recompute";
  EXPECT_GE(store.hits(), 1u);
  // Shared measurements are the same bits, so artifacts cannot change.
  EXPECT_EQ(a.seconds, b.seconds);
  EXPECT_EQ(a.speed_efficiency, b.speed_efficiency);
}

TEST_F(MeasureStoreTest, FingerprintSeparatesDifferentConfigs) {
  const auto base = ge2_config();
  auto bus = base;
  bus.network = NetworkKind::kSharedBus;
  auto with_data = base;
  with_data.with_data = true;
  const std::string k1 = config_fingerprint("ge", base.cluster, base.network,
                                            base.net_params, base.with_data);
  const std::string k2 = config_fingerprint("ge", bus.cluster, bus.network,
                                            bus.net_params, bus.with_data);
  const std::string k3 =
      config_fingerprint("ge", with_data.cluster, with_data.network,
                         with_data.net_params, with_data.with_data);
  const std::string k4 = config_fingerprint("mm", base.cluster, base.network,
                                            base.net_params, base.with_data);
  auto tweaked = base.net_params;
  tweaked.remote.bandwidth_Bps = std::nextafter(
      tweaked.remote.bandwidth_Bps, 2.0 * tweaked.remote.bandwidth_Bps);
  const std::string k5 = config_fingerprint("ge", base.cluster, base.network,
                                            tweaked, base.with_data);
  EXPECT_NE(k1, k2) << "network kind must split the key";
  EXPECT_NE(k1, k3) << "data mode must split the key";
  EXPECT_NE(k1, k4) << "algorithm must split the key";
  EXPECT_NE(k1, k5) << "a 1-ulp parameter change must split the key";
}

TEST_F(MeasureStoreTest, CollectiveFamilyReachesMachineAndKey) {
  // Two combinations that differ only in Config::tuning. The keys are part
  // of the on-disk cache format: legacy_flat adds nothing, and the tree
  // family's suffix is pinned.
  auto flat_config = ge2_config();
  flat_config.cluster = machine::sunwulf::ge_ensemble(4);
  flat_config.tuning = vmpi::CollectiveTuning::legacy_flat();
  auto tree_config = flat_config;
  tree_config.tuning = vmpi::CollectiveTuning::tree();
  const auto key = [](const ClusterCombination::Config& config) {
    return config_fingerprint(ge_algo().key, config.cluster, config.network,
                              config.net_params, config.with_data,
                              config.tuning);
  };
  const std::string flat_key = key(flat_config);
  const std::string tree_key = key(tree_config);
  EXPECT_NE(flat_key, tree_key);
  EXPECT_EQ(flat_key.find("|coll="), std::string::npos) << flat_key;
  EXPECT_TRUE(tree_key.ends_with("|coll=1,1,12288,1,1,1,1,1")) << tree_key;

  // The family reaches the simulated machine: with the store on, aliased
  // keys would hand the tree run the flat run's seconds.
  ClusterCombination flat("GE-4 flat", flat_config, ge_algo());
  ClusterCombination tree("GE-4 tree", tree_config, ge_algo());
  auto& store = MeasurementStore::global();
  const double flat_seconds = flat.measure(64).seconds;
  const std::uint64_t misses_after_flat = store.misses();
  const double tree_seconds = tree.measure(64).seconds;
  EXPECT_EQ(store.misses(), misses_after_flat + 1)
      << "the tree run must not hit the flat run's store entry";
  EXPECT_NE(flat_seconds, tree_seconds);
}

TEST_F(MeasureStoreTest, DisabledStoreDoesNotShare) {
  auto& store = MeasurementStore::global();
  store.set_enabled(false);
  ClusterCombination first("GE-a", ge2_config(), ge_algo());
  ClusterCombination second("GE-b", ge2_config(), ge_algo());
  (void)first.measure(48);
  (void)second.measure(48);
  EXPECT_EQ(store.size(), 0u) << "disabled store must stay empty";
}

TEST_F(MeasureStoreTest, MeasureManyDeduplicatesAndUsesStore) {
  ClusterCombination first("GE-a", ge2_config(), ge_algo());
  ClusterCombination second("GE-b", ge2_config(), ge_algo());
  run::Runner runner(1);
  const std::int64_t sizes[] = {32, 64, 32, 64, 96};
  const auto batch = first.measure_many(sizes, runner);
  ASSERT_EQ(batch.size(), 5u);
  EXPECT_EQ(batch[0].seconds, batch[2].seconds);
  EXPECT_EQ(batch[1].seconds, batch[3].seconds);

  auto& store = MeasurementStore::global();
  const std::uint64_t misses_before = store.misses();
  const auto again = second.measure_many(sizes, runner);
  EXPECT_EQ(store.misses(), misses_before)
      << "every size was stored by the first batch";
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(batch[i].seconds, again[i].seconds);
    EXPECT_EQ(batch[i].speed_efficiency, again[i].speed_efficiency);
  }
}

TEST_F(MeasureStoreTest, PersistedCacheWarmStartsFitStudyByteIdentically) {
  // Cold pass: gather a fit dataset (every point is a store miss), fit a
  // model, and persist the store — the `--measure-cache` save path.
  auto& store = MeasurementStore::global();
  ClusterCombination cold("C2", ge2_config(), ge_algo());
  std::vector<ClusterCombination*> ladder{&cold};
  const std::vector<std::int64_t> sizes{32, 48, 64};
  run::Runner runner(2);
  const auto cold_data = gather_fit_points("ge", ladder, sizes, runner);
  const auto cold_fit = predict::fit_scalability_model(
      *predict::find_model("usl"), cold_data);
  EXPECT_EQ(store.misses(), sizes.size());
  EXPECT_EQ(store.size(), sizes.size());

  const std::string path =
      ::testing::TempDir() + "/hetscale_measure_cache_test.txt";
  ASSERT_TRUE(store.save_file(path));

  // Warm pass: a fresh process (modeled by clear + load) must serve every
  // measurement from the cache — zero new misses — and reproduce the fit
  // output bit for bit.
  store.clear();
  std::ifstream saved(path);
  ASSERT_TRUE(store.load(saved));
  ASSERT_EQ(store.size(), sizes.size());
  const std::uint64_t hits_before = store.hits();
  const std::uint64_t misses_before = store.misses();
  ClusterCombination warm("C2-warm", ge2_config(), ge_algo());
  std::vector<ClusterCombination*> warm_ladder{&warm};
  const auto warm_data =
      gather_fit_points("ge", warm_ladder, sizes, runner);
  EXPECT_EQ(store.misses(), misses_before)
      << "a warm-started gather must not recompute anything";
  EXPECT_EQ(store.hits(), hits_before + sizes.size());

  ASSERT_EQ(warm_data.points.size(), cold_data.points.size());
  for (std::size_t i = 0; i < cold_data.points.size(); ++i) {
    EXPECT_EQ(warm_data.points[i].seconds, cold_data.points[i].seconds);
    EXPECT_EQ(warm_data.points[i].speed_efficiency,
              cold_data.points[i].speed_efficiency);
    EXPECT_EQ(warm_data.points[i].work_flops,
              cold_data.points[i].work_flops);
  }
  const auto warm_fit = predict::fit_scalability_model(
      *predict::find_model("usl"), warm_data);
  EXPECT_EQ(warm_fit.params, cold_fit.params);  // bit-equal, not near
  EXPECT_EQ(warm_fit.rmse, cold_fit.rmse);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hetscale::scal
