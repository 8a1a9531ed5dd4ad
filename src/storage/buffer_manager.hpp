#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/ids.hpp"
#include "sim/stats.hpp"

/// \file buffer_manager.hpp
/// LRU buffer bookkeeping — the in-memory half of the MiniRel Paged-File
/// (PF) layer the paper built its database on. The buffer decides *which*
/// entries are resident and which eviction happens; the timing of the
/// implied I/O is handled by PagedFile/ClientCache, which own the Disk.
///
/// The structure is id-generic: the server's paged file buffers `PageId`
/// frames (`BufferManager`), while the client cache tiers buffer whole
/// objects (`LruBuffer<ObjectId, std::uint64_t>`, each frame carrying the
/// copy's version). The strong id types keep the two from ever being mixed
/// — a page can't be inserted into an object tier. A frame's payload rides
/// along with its id and dirty bit; the server's pages carry none, and an
/// empty payload adds no bytes to a frame.

namespace rtdb::storage {

/// The payload of a frame that carries nothing beyond its dirty bit.
struct NoPayload {};

/// Tracks a set of resident entries with LRU replacement and dirty bits.
///
/// The PF layer's pin counts are modelled implicitly: in the simulation a
/// page is only accessed at a single decision instant, so transient pins
/// never span events. Dirty entries evicted by LRU are reported to the
/// caller so it can schedule the write-back (the PF buffer manager's
/// behaviour: "updated objects ... are automatically written back to the
/// disk file ... when the page is replaced").
template <class Id, class Payload = NoPayload>
class LruBuffer {
 public:
  /// A frame's contents as it leaves the pool (LRU displacement or erase).
  struct Entry {
    Id id{};
    bool dirty = false;
    [[no_unique_address]] Payload payload{};
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

  /// Makes `id` resident (MRU) with `payload`, evicting the LRU entry if the
  /// pool is full. If already resident: recency bump, dirty bits OR-ed, the
  /// payload kept. Returns the eviction, if any.
  std::optional<Entry> insert(Id id, bool dirty = false,
                              Payload payload = {});

  /// Marks a resident entry dirty. Returns false if not resident.
  bool mark_dirty(Id id);

  /// True if resident and dirty.
  [[nodiscard]] bool is_dirty(Id id) const;

  /// The payload of a resident entry, or nullptr. No recency effect.
  [[nodiscard]] Payload* payload(Id id);
  [[nodiscard]] const Payload* payload(Id id) const;

  /// Drops an entry without write-back bookkeeping (caller decides what the
  /// removal means). Returns the entry's dirty state, or nullopt if absent.
  std::optional<bool> erase(Id id) {
    auto gone = take(id);
    return gone ? std::optional<bool>(gone->dirty) : std::nullopt;
  }

  /// erase() that hands back the whole entry, payload included.
  std::optional<Entry> take(Id id);

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

  /// Resident ids in MRU-to-LRU order (diagnostics/audits).
  [[nodiscard]] std::vector<Id> resident_pages() const;

  /// Invariant audit: residency never exceeds capacity, and the id index
  /// and the LRU list describe exactly the same frames (the pin-balance
  /// analogue of the implicit-pin model — a frame can never be reachable
  /// from one structure but not the other). Aborts on violation.
  void validate_invariants() const;

 private:
  /// Frames live in a recycled slab threaded into an intrusive doubly
  /// linked LRU list (head = MRU, tail = LRU); the id index is a flat
  /// open-addressing map onto slab slots. Identical recency/eviction
  /// semantics to the former std::list + unordered_map pair, with zero
  /// node allocations in steady state (the slab never exceeds `capacity`
  /// frames and free slots are reused).
  static constexpr std::uint32_t kNull = 0xffffffffu;

  struct Frame {
    Id id{};
    bool dirty = false;
    std::uint32_t prev = kNull;
    std::uint32_t next = kNull;
    [[no_unique_address]] Payload payload{};
  };

  /// Moves a resident frame to the MRU position.
  void touch(std::uint32_t slot);
  void unlink(std::uint32_t slot);
  void link_front(std::uint32_t slot);

  std::size_t capacity_;
  std::vector<Frame> frames_;
  std::uint32_t head_ = kNull;  ///< MRU
  std::uint32_t tail_ = kNull;  ///< LRU (next eviction victim)
  std::uint32_t free_head_ = kNull;
  common::FlatMap<Id, std::uint32_t> index_;
  sim::Counter hits_;
  sim::Counter misses_;
};

extern template class LruBuffer<PageId>;
extern template class LruBuffer<ObjectId, std::uint64_t>;

/// The server-side page pool: frames are pages of the paged file.
using BufferManager = LruBuffer<PageId>;

}  // namespace rtdb::storage
