#include <algorithm>

#include <gtest/gtest.h>

#include "dip/pit/content_store.hpp"
#include "dip/pit/pit.hpp"

namespace dip::pit {
namespace {

// ---------- PIT ----------

TEST(Pit, CreateAggregateDuplicate) {
  Pit pit;
  EXPECT_EQ(pit.record_interest(1, 10, 0).value(), InterestResult::kCreated);
  EXPECT_EQ(pit.record_interest(1, 11, 0).value(), InterestResult::kAggregated);
  EXPECT_EQ(pit.record_interest(1, 10, 0).value(), InterestResult::kDuplicate);
  EXPECT_EQ(pit.size(), 1u);
  EXPECT_TRUE(pit.has_entry(1, 0));
  EXPECT_FALSE(pit.has_entry(2, 0));
}

TEST(Pit, DataConsumesEntryAndReturnsAllFaces) {
  Pit pit;
  pit.record_interest(7, 1, 0);
  pit.record_interest(7, 2, 0);
  pit.record_interest(7, 3, 0);

  const auto faces = pit.match_data(7, 1);
  EXPECT_EQ(faces, (std::vector<FaceId>{1, 2, 3}));

  // Consumed: second data is unsolicited.
  EXPECT_TRUE(pit.match_data(7, 1).empty());
  EXPECT_EQ(pit.size(), 0u);
}

TEST(Pit, MissOnUnknownName) {
  Pit pit;
  EXPECT_TRUE(pit.match_data(123, 0).empty());
}

TEST(Pit, EntryExpires) {
  Pit::Config config;
  config.entry_lifetime = 100;
  Pit pit(config);

  pit.record_interest(5, 1, 0);
  EXPECT_TRUE(pit.has_entry(5, 99));
  EXPECT_FALSE(pit.has_entry(5, 100));
  EXPECT_TRUE(pit.match_data(5, 150).empty()) << "expired entry must not match";
}

TEST(Pit, AggregationRefreshesLifetime) {
  Pit::Config config;
  config.entry_lifetime = 100;
  Pit pit(config);

  pit.record_interest(5, 1, 0);
  pit.record_interest(5, 2, 80);  // refresh at t=80 -> expiry 180
  EXPECT_TRUE(pit.has_entry(5, 150));
  const auto faces = pit.match_data(5, 150);
  EXPECT_EQ(faces.size(), 2u);
}

TEST(Pit, ReRequestAfterExpiryCreatesFreshEntry) {
  Pit::Config config;
  config.entry_lifetime = 100;
  Pit pit(config);
  pit.record_interest(5, 1, 0);
  EXPECT_EQ(pit.record_interest(5, 1, 200).value(), InterestResult::kCreated);
}

TEST(Pit, ExpireSweepsOnlyDue) {
  Pit::Config config;
  config.entry_lifetime = 100;
  Pit pit(config);
  pit.record_interest(1, 1, 0);    // expiry 100
  pit.record_interest(2, 1, 50);   // expiry 150
  pit.record_interest(3, 1, 120);  // expiry 220

  EXPECT_EQ(pit.expire(100), 1u);
  EXPECT_EQ(pit.size(), 2u);
  EXPECT_EQ(pit.expire(300), 2u);
  EXPECT_EQ(pit.size(), 0u);
  EXPECT_EQ(pit.expire(400), 0u);
}

TEST(Pit, RefreshedEntryNotSweptByStaleHeapItem) {
  Pit::Config config;
  config.entry_lifetime = 100;
  Pit pit(config);
  pit.record_interest(9, 1, 0);   // heap item at 100
  pit.record_interest(9, 2, 60);  // refreshed to 160
  EXPECT_EQ(pit.expire(100), 0u) << "stale heap item must not kill live entry";
  EXPECT_TRUE(pit.has_entry(9, 120));
}

TEST(Pit, CapacityLimitEnforced) {
  Pit::Config config;
  config.max_entries = 3;
  Pit pit(config);
  EXPECT_TRUE(pit.record_interest(1, 1, 0));
  EXPECT_TRUE(pit.record_interest(2, 1, 0));
  EXPECT_TRUE(pit.record_interest(3, 1, 0));
  EXPECT_FALSE(pit.record_interest(4, 1, 0)) << "table full: must refuse (2.4)";
  // Aggregation into an existing entry is still allowed at capacity.
  EXPECT_EQ(pit.record_interest(2, 9, 0).value(), InterestResult::kAggregated);
}

TEST(Pit, CapacityRecoversViaExpiry) {
  Pit::Config config;
  config.max_entries = 2;
  config.entry_lifetime = 100;
  Pit pit(config);
  pit.record_interest(1, 1, 0);
  pit.record_interest(2, 1, 0);
  // At t=150 both are expired; the refused insert triggers a sweep.
  EXPECT_TRUE(pit.record_interest(3, 1, 150));
}

TEST(Pit, ExpiryHeapStaysBoundedUnderInterestDataChurn) {
  // Every satisfied interest leaves its heap item behind, and expire() only
  // runs when the table is full. A million interest/data pairs must not
  // leave a million stale items: the heap is rebuilt from the live table.
  Pit pit;
  std::size_t high_water = 0;
  for (std::uint64_t i = 0; i < 1'000'000; ++i) {
    const SimTime now = i * 10;
    ASSERT_TRUE(pit.record_interest(i, 1, now));
    ASSERT_LE(pit.heap_size(), 2 * pit.size() + Pit::kHeapSlack) << "pair " << i;
    high_water = std::max(high_water, pit.heap_size());
    ASSERT_EQ(pit.match_data(i, now + 1).size(), 1u);
  }
  EXPECT_EQ(pit.size(), 0u);
  EXPECT_LE(high_water, 2 + Pit::kHeapSlack);
}

TEST(Pit, RebuiltHeapStillExpiresLiveEntries) {
  Pit::Config config;
  config.entry_lifetime = 100;
  Pit pit(config);
  pit.record_interest(1, 1, 0);   // expires at 100, never refreshed
  // Refresh entry 2 often enough to force several rebuilds.
  for (FaceId f = 0; f < 4 * Pit::kHeapSlack; ++f) {
    pit.record_interest(2, f, 50);
  }
  EXPECT_LE(pit.heap_size(), 2 * pit.size() + Pit::kHeapSlack);
  EXPECT_EQ(pit.expire(100), 1u) << "entry 1 expires at its own deadline";
  EXPECT_TRUE(pit.has_entry(2, 120));
  EXPECT_EQ(pit.expire(150), 1u);
  EXPECT_EQ(pit.size(), 0u);
  EXPECT_EQ(pit.heap_size(), 0u);
}

// ---------- ContentStore ----------

std::vector<std::uint8_t> payload(std::uint8_t tag) { return {tag, tag, tag}; }

TEST(ContentStore, InsertLookup) {
  ContentStore cs(4);
  cs.insert(1, payload(0xAA));
  const auto got = cs.lookup(1);
  ASSERT_TRUE(got);
  EXPECT_EQ(*got, payload(0xAA));
  EXPECT_FALSE(cs.lookup(2));
  EXPECT_EQ(cs.hits(), 1u);
  EXPECT_EQ(cs.misses(), 1u);
}

TEST(ContentStore, LruEviction) {
  ContentStore cs(2);
  cs.insert(1, payload(1));
  cs.insert(2, payload(2));
  // Touch 1 so 2 becomes the LRU victim.
  ASSERT_TRUE(cs.lookup(1));
  cs.insert(3, payload(3));

  EXPECT_TRUE(cs.contains(1));
  EXPECT_FALSE(cs.contains(2));
  EXPECT_TRUE(cs.contains(3));
  EXPECT_EQ(cs.size(), 2u);
}

TEST(ContentStore, ReinsertUpdatesPayloadAndRecency) {
  ContentStore cs(2);
  cs.insert(1, payload(1));
  cs.insert(2, payload(2));
  cs.insert(1, payload(9));  // update, 1 becomes MRU
  cs.insert(3, payload(3));  // evicts 2

  EXPECT_EQ(cs.lookup(1).value(), payload(9));
  EXPECT_FALSE(cs.contains(2));
}

TEST(ContentStore, EraseAndClear) {
  ContentStore cs(4);
  cs.insert(1, payload(1));
  cs.insert(2, payload(2));
  EXPECT_TRUE(cs.erase(1));
  EXPECT_FALSE(cs.erase(1));
  EXPECT_EQ(cs.size(), 1u);
  cs.clear();
  EXPECT_EQ(cs.size(), 0u);
  EXPECT_FALSE(cs.contains(2));
}

TEST(ContentStore, ZeroCapacityDisables) {
  ContentStore cs(0);
  cs.insert(1, payload(1));
  EXPECT_EQ(cs.size(), 0u);
  EXPECT_FALSE(cs.lookup(1));
}

}  // namespace
}  // namespace dip::pit
