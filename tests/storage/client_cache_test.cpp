#include "storage/client_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace rtdb::storage {
namespace {

ClientCacheConfig cfg(std::size_t mem = 2, std::size_t disk = 2) {
  ClientCacheConfig c;
  c.memory_capacity = mem;
  c.disk_capacity = disk;
  c.memory_access_time = sim::seconds(0.0001);
  c.disk.read_time = sim::seconds(0.008);
  c.disk.write_time = sim::seconds(0.008);
  return c;
}

TEST(ClientCache, InsertLandsInMemoryTier) {
  sim::Simulator sim;
  ClientCache cache(sim, cfg());
  cache.insert(ObjectId{1});
  EXPECT_EQ(cache.tier_of(ObjectId{1}), CacheTier::kMemory);
  EXPECT_TRUE(cache.contains(ObjectId{1}));
}

TEST(ClientCache, MemoryOverflowDemotesToDiskTier) {
  sim::Simulator sim;
  ClientCache cache(sim, cfg(2, 2));
  cache.insert(ObjectId{1});
  cache.insert(ObjectId{2});
  cache.insert(ObjectId{3});  // 1 demotes to disk tier
  EXPECT_EQ(cache.tier_of(ObjectId{1}), CacheTier::kDisk);
  EXPECT_EQ(cache.tier_of(ObjectId{2}), CacheTier::kMemory);
  EXPECT_EQ(cache.tier_of(ObjectId{3}), CacheTier::kMemory);
  EXPECT_EQ(cache.size(), 3u);
}

TEST(ClientCache, DemotionWritesLocalDisk) {
  sim::Simulator sim;
  ClientCache cache(sim, cfg(1, 2));
  cache.insert(ObjectId{1});
  cache.insert(ObjectId{2});
  EXPECT_EQ(cache.disk().writes(), 1u);
}

TEST(ClientCache, FullEvictionFiresHook) {
  sim::Simulator sim;
  ClientCache cache(sim, cfg(1, 1));
  struct Gone {
    ObjectId id;
    bool dirty;
    std::uint64_t version;
  };
  std::vector<Gone> evicted;
  cache.set_eviction_hook([&](ObjectId id, bool dirty, std::uint64_t v) {
    evicted.push_back({id, dirty, v});
  });
  cache.insert(ObjectId{1}, /*dirty=*/true, /*version=*/7);
  cache.insert(ObjectId{2}, /*dirty=*/false, /*version=*/3);
  cache.insert(ObjectId{3});  // 1 falls off the disk tier, dirty
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0].id, ObjectId{1});
  EXPECT_TRUE(evicted[0].dirty);
  EXPECT_EQ(evicted[0].version, 7u);
  EXPECT_FALSE(cache.contains(ObjectId{1}));
  EXPECT_EQ(cache.version_of(ObjectId{1}), 0u);
}

TEST(ClientCache, AccessMemoryHitIsFast) {
  sim::Simulator sim;
  ClientCache cache(sim, cfg());
  cache.insert(ObjectId{5});
  sim::SimTime done{-1.0};
  EXPECT_TRUE(cache.access(ObjectId{5}, false, [&] { done = sim.now(); }));
  sim.run();
  EXPECT_DOUBLE_EQ(done.sec(), 0.0001);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ClientCache, AccessDiskTierPromotesAndPaysRead) {
  sim::Simulator sim;
  ClientCache cache(sim, cfg(1, 2));
  cache.insert(ObjectId{1});
  cache.insert(ObjectId{2});  // 1 -> disk tier
  sim::SimTime done{-1.0};
  EXPECT_TRUE(cache.access(ObjectId{1}, false, [&] { done = sim.now(); }));
  sim.run();
  EXPECT_GT(done.sec(), 0.0);
  EXPECT_EQ(cache.tier_of(ObjectId{1}), CacheTier::kMemory);
  EXPECT_GE(cache.disk().reads(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
}

TEST(ClientCache, DiskHitWithMemoryFullSwapsPlacesWithoutEviction) {
  sim::Simulator sim;
  ClientCache cache(sim, cfg(2, 2));
  int evictions = 0;
  cache.set_eviction_hook(
      [&](ObjectId, bool, std::uint64_t) { ++evictions; });
  for (ObjectId i{1}; i <= ObjectId{4}; ++i) cache.insert(i);
  // memory: 4 3   disk: 2 1 — both tiers full.
  ASSERT_EQ(cache.disk().writes(), 2u);
  sim.after(sim::seconds(1.0), [] {});  // let the demotion writes drain
  sim.run();
  const sim::SimTime start = sim.now();
  sim::SimTime done{-1.0};
  EXPECT_TRUE(cache.access(ObjectId{1}, false, [&] { done = sim.now(); }));
  // 3 (memory LRU) takes the disk place 1 left, at the disk MRU end.
  EXPECT_EQ(cache.resident(CacheTier::kMemory),
            (std::vector<ObjectId>{ObjectId{1}, ObjectId{4}}));
  EXPECT_EQ(cache.resident(CacheTier::kDisk),
            (std::vector<ObjectId>{ObjectId{3}, ObjectId{2}}));
  EXPECT_EQ(evictions, 0);
  EXPECT_EQ(cache.disk().writes(), 3u);
  EXPECT_EQ(cache.disk().reads(), 1u);
  sim.run();
  // The demotion's write queues ahead of the promotion's read.
  EXPECT_DOUBLE_EQ((done - start).sec(), 0.016);
}

TEST(ClientCache, InsertOnDiskTierKeepsRecency) {
  sim::Simulator sim;
  ClientCache cache(sim, cfg(1, 3));
  cache.insert(ObjectId{1}, /*dirty=*/true, /*version=*/1);
  cache.insert(ObjectId{2}, /*dirty=*/false, /*version=*/2);
  cache.insert(ObjectId{3}, /*dirty=*/false, /*version=*/3);
  cache.insert(ObjectId{4});  // disk: 3 2 1
  cache.insert(ObjectId{1}, /*dirty=*/false, /*version=*/10);
  cache.insert(ObjectId{2}, /*dirty=*/true, /*version=*/20);
  EXPECT_EQ(cache.resident(CacheTier::kDisk),
            (std::vector<ObjectId>{ObjectId{3}, ObjectId{2}, ObjectId{1}}));
  EXPECT_EQ(cache.version_of(ObjectId{1}), 10u);
  EXPECT_TRUE(cache.is_dirty(ObjectId{1}));  // OR-ed, not replaced
  EXPECT_EQ(cache.version_of(ObjectId{2}), 20u);
  EXPECT_TRUE(cache.is_dirty(ObjectId{2}));
  cache.validate_invariants();
}

TEST(ClientCache, ReusableAfterClear) {
  sim::Simulator sim;
  ClientCache cache(sim, cfg(2, 2));
  std::vector<ObjectId> evicted;
  cache.set_eviction_hook(
      [&](ObjectId id, bool, std::uint64_t) { evicted.push_back(id); });
  cache.insert(ObjectId{1}, /*dirty=*/true);
  cache.insert(ObjectId{2});
  cache.insert(ObjectId{3}, /*dirty=*/true);
  cache.insert(ObjectId{4}, /*dirty=*/true);  // memory: 4 3  disk: 2 1
  // Dirty copies, memory MRU->LRU, then disk MRU->LRU.
  EXPECT_EQ(cache.clear(),
            (std::vector<ObjectId>{ObjectId{4}, ObjectId{3}, ObjectId{1}}));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.contains(ObjectId{1}));
  EXPECT_EQ(cache.version_of(ObjectId{4}), 0u);
  cache.validate_invariants();
  // Refilled past both tiers: the usual demotion and eviction order.
  for (ObjectId i{10}; i <= ObjectId{14}; ++i) cache.insert(i, false, 7);
  EXPECT_EQ(cache.resident(CacheTier::kMemory),
            (std::vector<ObjectId>{ObjectId{14}, ObjectId{13}}));
  EXPECT_EQ(cache.resident(CacheTier::kDisk),
            (std::vector<ObjectId>{ObjectId{12}, ObjectId{11}}));
  EXPECT_EQ(evicted, std::vector<ObjectId>{ObjectId{10}});
  EXPECT_EQ(cache.version_of(ObjectId{12}), 7u);
  EXPECT_TRUE(cache.clear().empty());
  cache.validate_invariants();
}

TEST(ClientCache, AccessMissCountsWithoutCallback) {
  sim::Simulator sim;
  ClientCache cache(sim, cfg());
  bool called = false;
  EXPECT_FALSE(cache.access(ObjectId{9}, false, [&] { called = true; }));
  sim.run();
  EXPECT_FALSE(called);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ClientCache, AccessReturnsTheCompletionInstant) {
  sim::Simulator sim;
  ClientCache cache(sim, cfg(2, 2));
  for (ObjectId i{1}; i <= ObjectId{3}; ++i) cache.insert(i);
  // memory: 3 2   disk: 1 — the memory tier is full.
  sim.after(sim::seconds(1.0), [] {});  // let the demotion write drain
  sim.run();
  const sim::SimTime start = sim.now();
  EXPECT_EQ(cache.access(ObjectId{3}, false),
            start + sim::seconds(0.0001));
  // The promotion's read queues behind the write demoting 2.
  EXPECT_EQ(cache.access(ObjectId{1}, false),
            start + sim::seconds(0.008) + sim::seconds(0.008));
  EXPECT_EQ(cache.access(ObjectId{9}, false), std::nullopt);
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
}

TEST(ClientCache, AccessWithoutCallbackSchedulesNothing) {
  sim::Simulator sim;
  ClientCache cache(sim, cfg(1, 2));
  cache.insert(ObjectId{1});
  cache.insert(ObjectId{2});  // 1 -> disk tier
  ASSERT_TRUE(cache.access(ObjectId{2}, false));  // memory hit
  ASSERT_TRUE(cache.access(ObjectId{1}, true));   // disk-tier hit
  EXPECT_FALSE(cache.access(ObjectId{9}, false));  // miss
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_TRUE(cache.is_dirty(ObjectId{1}));
}

TEST(ClientCache, WriteAccessDirties) {
  sim::Simulator sim;
  ClientCache cache(sim, cfg());
  cache.insert(ObjectId{1});
  cache.access(ObjectId{1}, true, [] {});
  sim.run();
  EXPECT_TRUE(cache.is_dirty(ObjectId{1}));
}

TEST(ClientCache, DirtySurvivesDemotion) {
  sim::Simulator sim;
  ClientCache cache(sim, cfg(1, 2));
  cache.insert(ObjectId{1}, true, /*version=*/5);
  cache.insert(ObjectId{2}, false, /*version=*/9);
  EXPECT_EQ(cache.tier_of(ObjectId{1}), CacheTier::kDisk);
  EXPECT_TRUE(cache.is_dirty(ObjectId{1}));
  EXPECT_EQ(cache.version_of(ObjectId{1}), 5u);
  // And back up on access (which demotes 2 in turn).
  cache.access(ObjectId{1}, false, [] {});
  sim.run();
  EXPECT_EQ(cache.tier_of(ObjectId{1}), CacheTier::kMemory);
  EXPECT_TRUE(cache.is_dirty(ObjectId{1}));
  EXPECT_EQ(cache.version_of(ObjectId{1}), 5u);
  EXPECT_EQ(cache.tier_of(ObjectId{2}), CacheTier::kDisk);
  EXPECT_EQ(cache.version_of(ObjectId{2}), 9u);
}

TEST(ClientCache, DropRemovesAndReportsDirty) {
  sim::Simulator sim;
  ClientCache cache(sim, cfg());
  cache.insert(ObjectId{1}, true, /*version=*/4);
  auto dirty = cache.drop(ObjectId{1});
  ASSERT_TRUE(dirty.has_value());
  EXPECT_TRUE(*dirty);
  EXPECT_FALSE(cache.contains(ObjectId{1}));
  EXPECT_EQ(cache.version_of(ObjectId{1}), 0u);
  EXPECT_FALSE(cache.drop(ObjectId{1}).has_value());
  // A later copy starts from the version it is installed with.
  cache.insert(ObjectId{1});
  EXPECT_EQ(cache.version_of(ObjectId{1}), 0u);
}

TEST(ClientCache, MarkCleanClearsDirty) {
  sim::Simulator sim;
  ClientCache cache(sim, cfg());
  cache.insert(ObjectId{1}, true);
  cache.mark_clean(ObjectId{1});
  EXPECT_FALSE(cache.is_dirty(ObjectId{1}));
  EXPECT_TRUE(cache.contains(ObjectId{1}));
}

TEST(ClientCache, MarkCleanPreservesTier) {
  sim::Simulator sim;
  ClientCache cache(sim, cfg(1, 2));
  cache.insert(ObjectId{1}, true, /*version=*/6);
  cache.insert(ObjectId{2}, true, /*version=*/2);  // 1 -> disk tier
  cache.mark_clean(ObjectId{1});
  EXPECT_EQ(cache.tier_of(ObjectId{1}), CacheTier::kDisk);
  EXPECT_FALSE(cache.is_dirty(ObjectId{1}));
  EXPECT_EQ(cache.version_of(ObjectId{1}), 6u);
  cache.mark_clean(ObjectId{2});
  EXPECT_EQ(cache.tier_of(ObjectId{2}), CacheTier::kMemory);
  EXPECT_EQ(cache.version_of(ObjectId{2}), 2u);
}

TEST(ClientCache, ReinsertRefreshesWithoutDuplicating) {
  sim::Simulator sim;
  ClientCache cache(sim, cfg(2, 2));
  cache.insert(ObjectId{1});
  cache.insert(ObjectId{1}, true);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.is_dirty(ObjectId{1}));
}

TEST(ClientCache, HitRateAggregatesTiers) {
  sim::Simulator sim;
  ClientCache cache(sim, cfg(1, 1));
  cache.insert(ObjectId{1});
  cache.insert(ObjectId{2});          // 1 -> disk tier
  cache.access(ObjectId{2}, false, [] {});  // memory hit
  cache.access(ObjectId{1}, false, [] {});  // disk-tier hit
  cache.access(ObjectId{9}, false, [] {});  // miss
  sim.run();
  EXPECT_EQ(cache.hits(), 2u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_NEAR(cache.hit_rate(), 2.0 / 3.0, 1e-12);
}

TEST(ClientCache, ResetStatsKeepsContents) {
  sim::Simulator sim;
  ClientCache cache(sim, cfg());
  cache.insert(ObjectId{1});
  cache.access(ObjectId{1}, false, [] {});
  sim.run();
  cache.reset_stats();
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_TRUE(cache.contains(ObjectId{1}));
}

TEST(ClientCache, PaperCapacities) {
  // Table 1: 500 memory + 500 disk objects; the 1000th insert must not
  // evict, the 1001st must.
  sim::Simulator sim;
  ClientCacheConfig c;
  int evictions = 0;
  ClientCache cache(sim, c);
  cache.set_eviction_hook(
      [&](ObjectId, bool, std::uint64_t) { ++evictions; });
  for (ObjectId i{0}; i < ObjectId{1000}; ++i) cache.insert(i);
  EXPECT_EQ(evictions, 0);
  EXPECT_EQ(cache.size(), 1000u);
  cache.insert(ObjectId{1000});
  EXPECT_EQ(evictions, 1);
}

}  // namespace
}  // namespace rtdb::storage
