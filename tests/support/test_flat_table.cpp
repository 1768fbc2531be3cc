#include "hetscale/support/flat_table.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <unordered_map>

namespace hetscale {
namespace {

TEST(FlatTable, EmptyTableFindsNothing) {
  FlatTable<int> table;
  EXPECT_EQ(table.find(0), nullptr);
  EXPECT_EQ(table.find(42), nullptr);
  EXPECT_EQ(table.size(), 0u);
}

TEST(FlatTable, EmplaceValueInitializesOnceThenFinds) {
  FlatTable<int> table;
  auto [value, inserted] = table.try_emplace(7);
  ASSERT_TRUE(inserted);
  EXPECT_EQ(*value, 0);
  *value = 5;
  auto [again, inserted_again] = table.try_emplace(7);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(*again, 5);
  ASSERT_NE(table.find(7), nullptr);
  EXPECT_EQ(*table.find(7), 5);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlatTable, GrowthKeepsEveryKey) {
  FlatTable<std::uint64_t> table;
  constexpr std::uint64_t kKeys = 10000;
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    *table.try_emplace(k << 32 | (k * 7)).first = k;
  }
  EXPECT_EQ(table.size(), kKeys);
  for (std::uint64_t k = 0; k < kKeys; ++k) {
    const std::uint64_t* value = table.find(k << 32 | (k * 7));
    ASSERT_NE(value, nullptr) << k;
    EXPECT_EQ(*value, k);
  }
  EXPECT_EQ(table.find(kKeys << 32), nullptr);
}

// Looking up a stored key never grows the table, even when the next
// insert would, so a caller may look keys up while iterating it.
TEST(FlatTable, EmplacingAStoredKeyKeepsValuesInPlace) {
  FlatTable<int> table;
  for (int k = 0; k < 4; ++k) *table.try_emplace(k).first = k + 1;
  const int* first = table.find(0);
  for (int k = 0; k < 4; ++k) {
    const auto [value, inserted] = table.try_emplace(k);
    EXPECT_FALSE(inserted);
    EXPECT_EQ(*value, k + 1);
  }
  EXPECT_EQ(table.find(0), first);
  int visited = 0;
  table.for_each([&](int value) {
    ++*table.try_emplace(value - 1).first;
    ++visited;
  });
  EXPECT_EQ(visited, 4);
  for (int k = 0; k < 4; ++k) EXPECT_EQ(*table.find(k), k + 2);
}

TEST(FlatTable, ClearForgetsEveryKey) {
  FlatTable<int> table;
  for (int k = 0; k < 100; ++k) *table.try_emplace(k).first = k + 1;
  table.clear();
  EXPECT_EQ(table.size(), 0u);
  for (int k = 0; k < 100; ++k) EXPECT_EQ(table.find(k), nullptr) << k;
  table.for_each([](int) { ADD_FAILURE() << "visited a cleared key"; });
  auto [value, inserted] = table.try_emplace(3);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*value, 0);  // not the value from before the clear
}

// Random inserts, lookups and clears against std::unordered_map, then a
// walk over the keys left.
TEST(FlatTable, MatchesAnUnorderedMap) {
  std::mt19937_64 rng(5);
  FlatTable<std::uint64_t> table;
  std::unordered_map<std::uint64_t, std::uint64_t> want;
  for (int op = 0; op < 200000; ++op) {
    const std::uint64_t key = rng() % 3000;
    switch (rng() % 100) {
      case 0:
        table.clear();
        want.clear();
        break;
      default:
        if (rng() % 2 == 0) {
          auto [value, inserted] = table.try_emplace(key);
          const auto [it, want_inserted] = want.try_emplace(key, 0);
          ASSERT_EQ(inserted, want_inserted);
          ++*value;
          ++it->second;
        } else {
          const std::uint64_t* value = table.find(key);
          const auto it = want.find(key);
          ASSERT_EQ(value != nullptr, it != want.end());
          if (value != nullptr) {
            EXPECT_EQ(*value, it->second);
          }
        }
    }
    ASSERT_EQ(table.size(), want.size());
  }
  std::uint64_t visited = 0;
  std::uint64_t sum = 0;
  table.for_each([&](std::uint64_t value) {
    ++visited;
    sum += value;
  });
  std::uint64_t want_sum = 0;
  for (const auto& [key, value] : want) want_sum += value;
  EXPECT_EQ(visited, want.size());
  EXPECT_EQ(sum, want_sum);
}

}  // namespace
}  // namespace hetscale
