/// \file storage_model_test.cpp
/// Model-based randomized testing of the storage bookkeeping: the LRU
/// buffer manager and the two-tier client cache, each compared step by
/// step against a plain list-based reference model.

#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <optional>
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

/// Straight-line reference of the two-tier client cache: two lists with
/// front = MRU, plus the counters and the eviction log the real cache
/// exposes. Every observable effect of ClientCache is spelled out here
/// once, in the most obvious form.
class ReferenceCache {
 public:
  struct Copy {
    ObjectId id{};
    bool dirty = false;
    std::uint64_t version = 0;
    bool operator==(const Copy&) const = default;
  };
  using Tier = std::list<Copy>;  // front = MRU

  explicit ReferenceCache(const ClientCacheConfig& cfg) : cfg_(cfg) {}

  /// Returns the instant the access completes, or nullopt on a miss. A disk
  /// hit that demotes queues the demotion's write before its own read on
  /// the one FIFO disk.
  std::optional<sim::SimTime> access(ObjectId id, bool write) {
    if (auto it = find(memory_, id); it != memory_.end()) {
      ++hits;
      it->dirty = it->dirty || write;
      memory_.splice(memory_.begin(), memory_, it);
      return now + cfg_.memory_access_time;
    }
    if (auto it = find(disk_, id); it != disk_.end()) {
      ++hits;
      Copy c = *it;
      c.dirty = c.dirty || write;
      disk_.erase(it);
      place_in_memory(c);
      ++reads;
      return disk_op(cfg_.disk.read_time);
    }
    ++misses;
    return std::nullopt;
  }

  /// Memory copy: recency bump. Disk copy: recency left alone. Either way
  /// the dirty bit is OR-ed and the version replaced.
  void insert(ObjectId id, bool dirty, std::uint64_t version) {
    if (auto it = find(memory_, id); it != memory_.end()) {
      it->dirty = it->dirty || dirty;
      it->version = version;
      memory_.splice(memory_.begin(), memory_, it);
    } else if (auto it2 = find(disk_, id); it2 != disk_.end()) {
      it2->dirty = it2->dirty || dirty;
      it2->version = version;
    } else {
      place_in_memory(Copy{id, dirty, version});
    }
  }

  std::uint64_t commit_write(ObjectId id) {
    Copy* c = copy(id);
    c->dirty = true;
    return ++c->version;
  }

  std::optional<bool> drop(ObjectId id) {
    for (Tier* t : {&memory_, &disk_}) {
      if (auto it = find(*t, id); it != t->end()) {
        const bool dirty = it->dirty;
        t->erase(it);
        return dirty;
      }
    }
    return std::nullopt;
  }

  /// Clean and moved to the MRU end of its own tier.
  void mark_clean(ObjectId id) {
    for (Tier* t : {&memory_, &disk_}) {
      if (auto it = find(*t, id); it != t->end()) {
        it->dirty = false;
        t->splice(t->begin(), *t, it);
        return;
      }
    }
  }

  /// Dirty copies, memory MRU->LRU then disk MRU->LRU.
  std::vector<ObjectId> clear() {
    std::vector<ObjectId> dirty;
    for (const Tier* t : {&memory_, &disk_}) {
      for (const Copy& c : *t) {
        if (c.dirty) dirty.push_back(c.id);
      }
    }
    memory_.clear();
    disk_.clear();
    return dirty;
  }

  Copy* copy(ObjectId id) {
    for (Tier* t : {&memory_, &disk_}) {
      if (auto it = find(*t, id); it != t->end()) return &*it;
    }
    return nullptr;
  }

  CacheTier tier_of(ObjectId id) {
    if (find(memory_, id) != memory_.end()) return CacheTier::kMemory;
    if (find(disk_, id) != disk_.end()) return CacheTier::kDisk;
    return CacheTier::kNone;
  }

  static std::vector<ObjectId> ids(const Tier& t) {
    std::vector<ObjectId> out;
    for (const Copy& c : t) out.push_back(c.id);
    return out;
  }

  const Tier& memory() const { return memory_; }
  const Tier& disk() const { return disk_; }

  sim::SimTime now;  ///< the simulator's clock at the current step
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::vector<Copy> evicted;  ///< the eviction hook's expected sequence

 private:
  static Tier::iterator find(Tier& t, ObjectId id) {
    return std::find_if(t.begin(), t.end(),
                        [&](const Copy& c) { return c.id == id; });
  }

  /// Queues one disk operation; returns its completion instant.
  sim::SimTime disk_op(sim::Duration service) {
    disk_free_at_ = std::max(now, disk_free_at_) + service;
    return disk_free_at_;
  }

  void place_in_memory(Copy c) {
    memory_.push_front(c);
    if (memory_.size() <= cfg_.memory_capacity) return;
    const Copy demoted = memory_.back();
    memory_.pop_back();
    ++writes;
    disk_op(cfg_.disk.write_time);
    disk_.push_front(demoted);
    if (disk_.size() <= cfg_.disk_capacity) return;
    evicted.push_back(disk_.back());
    disk_.pop_back();
  }

  ClientCacheConfig cfg_;
  sim::SimTime disk_free_at_;
  Tier memory_;
  Tier disk_;
};

class CacheModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CacheModel, TwoTierInvariantsUnderRandomTraffic) {
  sim::Rng rng(GetParam());
  sim::Simulator sim;
  ClientCacheConfig cfg;
  cfg.memory_capacity = 4;
  cfg.disk_capacity = 3;
  cfg.memory_access_time = sim::msec(0.05);
  cfg.disk.read_time = sim::msec(8.0);
  cfg.disk.write_time = sim::msec(3.0);  // distinct: pins write-before-read
  ClientCache cache(sim, cfg);
  ReferenceCache ref(cfg);

  // The hook runs last: the demoted copy is already on the disk list and
  // the evicted one gone from the index, so the view it sees is final.
  std::vector<ReferenceCache::Copy> evicted;
  std::vector<ObjectId> hook_memory, hook_disk;
  cache.set_eviction_hook([&](ObjectId id, bool dirty, std::uint64_t v) {
    evicted.push_back({id, dirty, v});
    EXPECT_FALSE(cache.contains(id)) << "evicted copy still indexed";
    hook_memory = cache.resident(CacheTier::kMemory);
    hook_disk = cache.resident(CacheTier::kDisk);
  });

  for (int step = 0; step < 4000; ++step) {
    const ObjectId id = static_cast<ObjectId>(rng.uniform_int(0, 14));
    const auto version = static_cast<std::uint64_t>(step) + 1;
    const std::size_t evicted_before = evicted.size();
    const double dice = rng.uniform01();
    ref.now = sim.now();
    if (dice < 0.40) {
      const bool write = rng.bernoulli(0.3);
      sim::SimTime done{-1.0};
      const bool hit =
          cache.access(id, write, [&] { done = sim.now(); }).has_value();
      const auto expect_done = ref.access(id, write);
      ASSERT_EQ(hit, expect_done.has_value()) << "step " << step;
      sim.run();
      if (hit) {
        ASSERT_EQ(done.sec(), expect_done->sec()) << "step " << step;
      } else {
        ref.now = sim.now();
        cache.insert(id, false, version);  // the fetched copy
        ref.insert(id, false, version);
      }
    } else if (dice < 0.60) {
      const bool dirty = rng.bernoulli(0.3);
      cache.insert(id, dirty, version);
      ref.insert(id, dirty, version);
    } else if (dice < 0.72) {
      ASSERT_EQ(cache.drop(id), ref.drop(id)) << "step " << step;
    } else if (dice < 0.86) {
      cache.mark_clean(id);
      ref.mark_clean(id);
    } else if (dice < 0.99) {
      if (ref.copy(id) != nullptr) {
        ASSERT_EQ(cache.commit_write(id), ref.commit_write(id))
            << "step " << step;
      }
    } else {
      ASSERT_EQ(cache.clear(), ref.clear()) << "step " << step;
    }
    sim.run();  // settle the timing callbacks

    const auto mem_ids = ReferenceCache::ids(ref.memory());
    const auto disk_ids = ReferenceCache::ids(ref.disk());
    ASSERT_EQ(cache.resident(CacheTier::kMemory), mem_ids) << "step " << step;
    ASSERT_EQ(cache.resident(CacheTier::kDisk), disk_ids) << "step " << step;
    ASSERT_EQ(cache.size(), mem_ids.size() + disk_ids.size())
        << "step " << step;
    for (const auto* tier : {&ref.memory(), &ref.disk()}) {
      for (const auto& c : *tier) {
        ASSERT_EQ(cache.is_dirty(c.id), c.dirty) << "step " << step;
        ASSERT_EQ(cache.version_of(c.id), c.version) << "step " << step;
      }
    }
    ASSERT_EQ(cache.tier_of(id), ref.tier_of(id)) << "step " << step;
    if (ref.copy(id) == nullptr) {
      ASSERT_FALSE(cache.is_dirty(id)) << "step " << step;
      ASSERT_EQ(cache.version_of(id), 0u) << "step " << step;
    }
    ASSERT_EQ(evicted, ref.evicted) << "step " << step;
    if (evicted.size() != evicted_before) {
      ASSERT_EQ(hook_memory, mem_ids) << "step " << step;
      ASSERT_EQ(hook_disk, disk_ids) << "step " << step;
    }
    ASSERT_EQ(cache.disk().reads(), ref.reads) << "step " << step;
    ASSERT_EQ(cache.disk().writes(), ref.writes) << "step " << step;
    ASSERT_EQ(cache.hits(), ref.hits) << "step " << step;
    ASSERT_EQ(cache.misses(), ref.misses) << "step " << step;
    cache.validate_invariants();
  }
  // The traffic reached every path the comparison is meant to cover.
  EXPECT_GT(ref.evicted.size(), 0u);
  EXPECT_GT(ref.reads, 0u);
  EXPECT_GT(ref.writes, 0u);
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
