#pragma once

#include <cstdint>
#include <optional>

#include "common/flat_hash.hpp"
#include "common/ids.hpp"
#include "sim/stats.hpp"
#include "storage/frame_slab.hpp"

/// \file buffer_manager.hpp
/// LRU buffer bookkeeping — the in-memory half of the MiniRel Paged-File
/// (PF) layer the paper built its database on. The buffer decides *which*
/// pages are resident and which eviction happens; the timing of the
/// implied I/O is handled by PagedFile, which owns the Disk.
///
/// The server's paged file buffers `PageId` frames (`BufferManager`). The
/// client's two-tier object cache is not built from these buffers: it
/// threads both tiers through one frame slab of its own
/// (storage/client_cache.hpp); the list-splice code the two share lives in
/// storage/frame_slab.hpp.

namespace rtdb::storage {

/// Tracks a set of resident entries with LRU replacement and dirty bits.
///
/// The PF layer's pin counts are modelled implicitly: in the simulation a
/// page is only accessed at a single decision instant, so transient pins
/// never span events. Dirty entries evicted by LRU are reported to the
/// caller so it can schedule the write-back (the PF buffer manager's
/// behaviour: "updated objects ... are automatically written back to the
/// disk file ... when the page is replaced").
template <class Id>
class LruBuffer {
 public:
  /// A frame's contents as it leaves the pool (LRU displacement).
  struct Entry {
    Id id{};
    bool dirty = false;
  };

  /// `capacity` — number of 2 KB frames the pool holds (>= 1).
  explicit LruBuffer(std::size_t capacity);

  /// True if the entry is resident. Does not affect recency or counters.
  [[nodiscard]] bool contains(Id id) const {
    return index_.find(id) != nullptr;
  }

  /// References an entry: records a hit (promoting it to MRU) or a miss.
  /// Returns true on hit.
  bool reference(Id id);

  /// Makes `id` resident (MRU), evicting the LRU entry if the pool is
  /// full. If already resident: recency bump, dirty bits OR-ed. Returns the
  /// eviction, if any.
  std::optional<Entry> insert(Id id, bool dirty = false);

  /// Marks a resident entry dirty. Returns false if not resident.
  bool mark_dirty(Id id);

  /// True if resident and dirty.
  [[nodiscard]] bool is_dirty(Id id) const;

  /// Drops an entry without write-back bookkeeping (caller decides what the
  /// removal means). Returns the entry's dirty state, or nullopt if absent.
  std::optional<bool> erase(Id id);

  [[nodiscard]] std::size_t size() const { return index_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  [[nodiscard]] std::uint64_t hits() const { return hits_.value(); }
  [[nodiscard]] std::uint64_t misses() const { return misses_.value(); }

  /// hits / (hits + misses); 0 when no references yet.
  [[nodiscard]] double hit_rate() const;

  void reset_stats() {
    hits_.reset();
    misses_.reset();
  }

  /// Least-recently-used resident entry (the next eviction victim), if any.
  [[nodiscard]] std::optional<Id> lru_victim() const;

  /// Invariant audit: residency never exceeds capacity, and the id index
  /// and the LRU list describe exactly the same frames (the pin-balance
  /// analogue of the implicit-pin model — a frame can never be reachable
  /// from one structure but not the other). Aborts on violation.
  void validate_invariants() const;

 private:
  /// Frames live in a recycled slab threaded into an intrusive doubly
  /// linked LRU list; the id index is a flat open-addressing map onto slab
  /// slots. The slab never exceeds `capacity` frames and free slots are
  /// reused, so steady state allocates nothing.
  struct Frame {
    Id id{};
    bool dirty = false;
    std::uint32_t prev = kNullSlot;
    std::uint32_t next = kNullSlot;
  };
  using Slab = FrameSlab<Frame>;

  std::size_t capacity_;
  Slab frames_;
  typename Slab::List lru_;
  common::FlatMap<Id, std::uint32_t> index_;
  sim::Counter hits_;
  sim::Counter misses_;
};

extern template class LruBuffer<PageId>;

/// The server-side page pool: frames are pages of the paged file.
using BufferManager = LruBuffer<PageId>;

}  // namespace rtdb::storage
