/// \file storage_model_test.cpp
/// Model-based randomized testing of the storage bookkeeping: the LRU
/// buffer manager against a simple reference model, and the two-tier
/// client cache's structural invariants under random traffic.

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <vector>

#include "sim/rng.hpp"
#include "storage/buffer_manager.hpp"
#include "storage/client_cache.hpp"

namespace rtdb::storage {
namespace {

/// Straight-line reference LRU: a list with front = MRU.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  bool contains(PageId id) const {
    return std::find_if(items_.begin(), items_.end(), [&](const auto& p) {
             return p.first == id;
           }) != items_.end();
  }

  bool reference(PageId id) {
    auto it = std::find_if(items_.begin(), items_.end(),
                           [&](const auto& p) { return p.first == id; });
    if (it == items_.end()) return false;
    items_.splice(items_.begin(), items_, it);
    return true;
  }

  // Returns the evicted (id, dirty) if any.
  std::optional<std::pair<PageId, bool>> insert(PageId id, bool dirty) {
    auto it = std::find_if(items_.begin(), items_.end(),
                           [&](const auto& p) { return p.first == id; });
    if (it != items_.end()) {
      it->second = it->second || dirty;
      items_.splice(items_.begin(), items_, it);
      return std::nullopt;
    }
    std::optional<std::pair<PageId, bool>> evicted;
    if (items_.size() >= capacity_) {
      evicted = items_.back();
      items_.pop_back();
    }
    items_.emplace_front(id, dirty);
    return evicted;
  }

  std::optional<bool> erase(PageId id) {
    auto it = std::find_if(items_.begin(), items_.end(),
                           [&](const auto& p) { return p.first == id; });
    if (it == items_.end()) return std::nullopt;
    const bool dirty = it->second;
    items_.erase(it);
    return dirty;
  }

  bool dirty(PageId id) const {
    auto it = std::find_if(items_.begin(), items_.end(),
                           [&](const auto& p) { return p.first == id; });
    return it != items_.end() && it->second;
  }

  /// In-place dirty mark: recency untouched (BufferManager semantics).
  bool mark_dirty(PageId id) {
    auto it = std::find_if(items_.begin(), items_.end(),
                           [&](const auto& p) { return p.first == id; });
    if (it == items_.end()) return false;
    it->second = true;
    return true;
  }

  std::size_t size() const { return items_.size(); }

 private:
  std::size_t capacity_;
  std::list<std::pair<PageId, bool>> items_;  // front = MRU
};

class BufferModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BufferModel, MatchesReferenceLruExactly) {
  sim::Rng rng(GetParam());
  BufferManager bm(8);
  ReferenceLru ref(8);

  for (int step = 0; step < 5000; ++step) {
    const PageId id{static_cast<PageId::Rep>(rng.uniform_int(0, 19))};
    const double dice = rng.uniform01();
    if (dice < 0.4) {
      ASSERT_EQ(bm.reference(id), ref.reference(id)) << "step " << step;
    } else if (dice < 0.75) {
      const bool dirty = rng.bernoulli(0.3);
      const auto got = bm.insert(id, dirty);
      const auto expect = ref.insert(id, dirty);
      ASSERT_EQ(got.has_value(), expect.has_value()) << "step " << step;
      if (got) {
        ASSERT_EQ(got->id, expect->first) << "step " << step;
        ASSERT_EQ(got->dirty, expect->second) << "step " << step;
      }
    } else if (dice < 0.9) {
      const auto got = bm.erase(id);
      const auto expect = ref.erase(id);
      ASSERT_EQ(got, expect) << "step " << step;
    } else {
      ASSERT_EQ(bm.mark_dirty(id), ref.mark_dirty(id)) << "step " << step;
    }
    ASSERT_EQ(bm.size(), ref.size()) << "step " << step;
    ASSERT_EQ(bm.is_dirty(id), ref.dirty(id)) << "step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BufferModel, ::testing::Values(3, 7, 42));

class CacheModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheModel, TwoTierInvariantsUnderRandomTraffic) {
  sim::Rng rng(GetParam());
  sim::Simulator sim;
  ClientCacheConfig cfg;
  cfg.memory_capacity = 4;
  cfg.disk_capacity = 3;
  ClientCache cache(sim, cfg);

  std::map<ObjectId, bool> evicted_log;  // id -> dirty at eviction
  std::map<ObjectId, std::uint64_t> version;  // reference: resident copies
  cache.set_eviction_hook([&](ObjectId id, bool dirty, std::uint64_t v) {
    evicted_log[id] = dirty;
    EXPECT_EQ(v, version[id]) << "evicted copy lost its version";
    version.erase(id);
  });

  std::size_t inserted = 0;
  for (int step = 0; step < 2000; ++step) {
    const ObjectId id = static_cast<ObjectId>(rng.uniform_int(0, 14));
    const double dice = rng.uniform01();
    if (dice < 0.5) {
      if (!cache.access(id, rng.bernoulli(0.3), [] {})) {
        version[id] = static_cast<std::uint64_t>(step);
        cache.insert(id, false, version[id]);
        ++inserted;
      }
    } else if (dice < 0.7) {
      version[id] = static_cast<std::uint64_t>(step);
      cache.insert(id, rng.bernoulli(0.3), version[id]);
      ++inserted;
    } else if (dice < 0.9) {
      cache.drop(id);
      version.erase(id);
    } else {
      cache.mark_clean(id);
    }
    sim.run();  // settle the timing callbacks

    // Capacity invariant: never more than mem + disk objects.
    ASSERT_LE(cache.size(), 7u) << "step " << step;
    // Tier exclusivity: an object lives in exactly one tier.
    const auto tier = cache.tier_of(id);
    if (tier == CacheTier::kMemory) {
      ASSERT_TRUE(cache.contains(id));
    }
    // Every copy keeps the version it was installed with; absent is 0.
    const auto it = version.find(id);
    ASSERT_EQ(cache.version_of(id), it == version.end() ? 0 : it->second)
        << "step " << step;
  }
  EXPECT_GT(inserted, 0u);
  // Everything that left completely went through the hook or drop().
  EXPECT_GE(inserted, cache.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, CacheModel, ::testing::Values(5, 17, 23));

TEST(CacheModel, HitRateNeverCountsInsertsAsAccesses) {
  sim::Simulator sim;
  ClientCacheConfig cfg;
  cfg.memory_capacity = 2;
  cfg.disk_capacity = 2;
  ClientCache cache(sim, cfg);
  cache.insert(ObjectId{1});
  cache.insert(ObjectId{2});
  EXPECT_EQ(cache.hits() + cache.misses(), 0u);
  cache.access(ObjectId{1}, false, [] {});
  cache.access(ObjectId{9}, false, [] {});
  sim.run();
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
}

}  // namespace
}  // namespace rtdb::storage
