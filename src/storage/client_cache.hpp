#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/ids.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "storage/disk.hpp"
#include "storage/frame_slab.hpp"

/// \file client_cache.hpp
/// Two-tier client object cache ("the set of objects cached at a client is
/// treated as a local dataspace and is stored in the client's short and
/// long-term memory"). Tier 1 is main memory (paper: 500 objects), tier 2
/// is the client's local disk (paper: 500 objects). LRU within each tier;
/// memory evictions demote to the disk tier; disk-tier evictions leave the
/// cache entirely and are reported through a hook so the owning client can
/// return dirty objects (and their locks) to the server.
///
/// The cache is the one owner of per-copy state: each resident copy carries
/// its version next to its dirty bit, so a client pays for the copies it
/// holds, never for the size of the database.
///
/// Layout: one id index onto one slab of frames (id, tier, dirty bit,
/// version, LRU links) threaded into two intrusive LRU lists, one per tier.
/// A query is one index probe; promotion, demotion and mark_clean are list
/// relinks; the index changes only when a copy enters or leaves the cache.

namespace rtdb::storage {

/// Capacities and timing of the client cache.
struct ClientCacheConfig {
  std::size_t memory_capacity = 500;  ///< objects in RAM
  std::size_t disk_capacity = 500;    ///< objects on local disk
  sim::Duration memory_access_time = sim::usec(50);
  DiskConfig disk;
};

/// Where a cached object currently resides.
enum class CacheTier : std::uint8_t { kNone, kMemory, kDisk };

/// The client-side local dataspace.
class ClientCache {
 public:
  /// (object, was-dirty, version): the copy fell out of the cache entirely.
  /// The frame is gone when the hook runs, so it carries the copy's state.
  using EvictionHook = std::function<void(ObjectId, bool, std::uint64_t)>;

  /// Both capacities must be >= 1 (std::invalid_argument otherwise).
  ClientCache(sim::Simulator& sim, ClientCacheConfig config);

  ClientCache(const ClientCache&) = delete;
  ClientCache& operator=(const ClientCache&) = delete;

  /// Called whenever an object is pushed out of both tiers.
  void set_eviction_hook(EvictionHook hook) { on_evict_ = std::move(hook); }

  /// Residency query; no timing, no counters.
  [[nodiscard]] CacheTier tier_of(ObjectId id) const;

  /// True if the object is cached in either tier.
  [[nodiscard]] bool contains(ObjectId id) const {
    return tier_of(id) != CacheTier::kNone;
  }

  /// Accesses a cached object (counts a hit and promotes it to the memory
  /// tier, reading from the local disk when it lived in tier 2). Returns
  /// when the object is in memory, where `done` (optional) runs; a miss
  /// (counted) returns nullopt: the caller fetches the object, insert()s it.
  std::optional<sim::SimTime> access(ObjectId id, bool write,
                                     sim::Simulator::Callback done = {});

  /// Installs a copy fetched from the server, at `version`, into the memory
  /// tier, cascading demotions/evictions. A copy already cached is refreshed
  /// in place: recency (memory tier), dirty bit OR-ed, version replaced.
  void insert(ObjectId id, bool dirty = false, std::uint64_t version = 0);

  /// Version of the cached copy; 0 when the object is not cached.
  [[nodiscard]] std::uint64_t version_of(ObjectId id) const;

  /// A committed update of a cached copy: marks it dirty and advances its
  /// version, which it returns. The copy must be cached.
  std::uint64_t commit_write(ObjectId id);

  /// True if cached and dirty.
  [[nodiscard]] bool is_dirty(ObjectId id) const;

  /// Removes an object (e.g. on a server recall), forgetting its version.
  /// Returns its dirty state, or nullopt if it was not cached. Does NOT
  /// fire the eviction hook — the caller initiated the removal and handles
  /// the consequences.
  std::optional<bool> drop(ObjectId id);

  /// Clears the dirty bit (after the update was returned to the server);
  /// the copy keeps its tier and its version and moves to the MRU end of
  /// its tier.
  void mark_clean(ObjectId id);

  /// Crash wipe (fault injection): empties both tiers at once, versions
  /// included, without firing the eviction hook — the site lost its
  /// volatile state, nothing orderly happens. Returns the dirty objects
  /// that were destroyed so the caller can account the lost versions.
  std::vector<ObjectId> clear();

  /// Cache-level accounting for the paper's Table 2: a hit is an access
  /// satisfied by either tier.
  [[nodiscard]] std::uint64_t hits() const { return hits_.value(); }
  [[nodiscard]] std::uint64_t misses() const { return misses_.value(); }
  [[nodiscard]] double hit_rate() const;

  [[nodiscard]] std::size_t size() const { return index_.size(); }

  [[nodiscard]] const Disk& disk() const { return disk_; }

  /// Ids resident in one tier, MRU to LRU (audits and tests).
  [[nodiscard]] std::vector<ObjectId> resident(CacheTier tier) const;

  /// Invariant audit: each tier within its capacity; both lists' links
  /// consistent; every listed frame indexed at its slot and carrying its
  /// list's tier; the index exactly the two lists; the free list the rest
  /// of the slab. Aborts on violation.
  void validate_invariants() const;

  void reset_stats() {
    hits_.reset();
    misses_.reset();
    disk_.reset_stats();
  }

 private:
  struct Frame {
    ObjectId id{};
    CacheTier tier = CacheTier::kNone;
    bool dirty = false;
    std::uint32_t prev = kNullSlot;
    std::uint32_t next = kNullSlot;
    std::uint64_t version = 0;
  };
  using Slab = FrameSlab<Frame>;

  [[nodiscard]] Slab::List& list_of(CacheTier tier) {
    return tier == CacheTier::kMemory ? memory_ : disk_tier_;
  }
  [[nodiscard]] const Slab::List& list_of(CacheTier tier) const {
    return tier == CacheTier::kMemory ? memory_ : disk_tier_;
  }
  [[nodiscard]] const Frame* find(ObjectId id) const {
    const std::uint32_t* s = index_.find(id);
    return s == nullptr ? nullptr : &frames_[*s];
  }

  /// Frees a place in a full memory tier: demotes the memory LRU copy to
  /// the disk tier's MRU end (queueing its local-disk write), first
  /// evicting the disk LRU copy when that tier is full too. Returns the
  /// evicted copy, whose hook the caller fires once its own frame is
  /// placed.
  std::optional<Frame> make_room_in_memory();

  /// Links slot `s` at the memory tier's MRU end, then reports `evicted`.
  void place_in_memory(std::uint32_t s,
                       const std::optional<Frame>& evicted);

  /// Removes slot `s` from its tier list, the index and the slab.
  void forget(std::uint32_t s);

  sim::Simulator& sim_;
  ClientCacheConfig config_;
  Disk disk_;
  common::FlatMap<ObjectId, std::uint32_t> index_;
  Slab frames_;
  Slab::List memory_;
  Slab::List disk_tier_;
  EvictionHook on_evict_;
  sim::Counter hits_;
  sim::Counter misses_;
};

}  // namespace rtdb::storage
