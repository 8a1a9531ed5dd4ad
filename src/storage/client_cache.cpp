#include "storage/client_cache.hpp"

#include <cassert>

#include "common/check.hpp"

namespace rtdb::storage {

CacheTier ClientCache::tier_of(ObjectId id) const {
  if (memory_.contains(id)) return CacheTier::kMemory;
  if (disk_tier_.contains(id)) return CacheTier::kDisk;
  return CacheTier::kNone;
}

void ClientCache::place_in_memory(ObjectId id, bool dirty,
                                  std::uint64_t version) {
  auto demoted = memory_.insert(id, dirty, version);
  if (!demoted) return;
  // Demotion writes the object to the local disk cache file.
  disk_.write();
  auto evicted =
      disk_tier_.insert(demoted->id, demoted->dirty, demoted->payload);
  if (evicted && on_evict_) {
    on_evict_(evicted->id, evicted->dirty, evicted->payload);
  }
}

bool ClientCache::access(ObjectId id, bool write, sim::Simulator::Callback done) {
  assert(done);
  switch (tier_of(id)) {
    case CacheTier::kMemory: {
      hits_.inc();
      memory_.reference(id);
      if (write) memory_.mark_dirty(id);
      sim_.after(config_.memory_access_time, std::move(done));
      return true;
    }
    case CacheTier::kDisk: {
      hits_.inc();
      const auto copy = disk_tier_.take(id);
      place_in_memory(id, copy->dirty || write, copy->payload);
      disk_.read(std::move(done));
      return true;
    }
    case CacheTier::kNone:
      misses_.inc();
      return false;
  }
  return false;  // unreachable
}

void ClientCache::insert(ObjectId id, bool dirty, std::uint64_t version) {
  // Already cached (e.g. re-granted lock on a resident object): refresh
  // recency, dirty state and version in place.
  if (std::uint64_t* v = memory_.payload(id)) {
    memory_.reference(id);
    if (dirty) memory_.mark_dirty(id);
    *v = version;
  } else if (std::uint64_t* v = disk_tier_.payload(id)) {
    if (dirty) disk_tier_.mark_dirty(id);
    *v = version;
  } else {
    place_in_memory(id, dirty, version);
  }
}

std::uint64_t ClientCache::version_of(ObjectId id) const {
  if (const std::uint64_t* v = memory_.payload(id)) return *v;
  if (const std::uint64_t* v = disk_tier_.payload(id)) return *v;
  return 0;
}

std::uint64_t ClientCache::commit_write(ObjectId id) {
  std::uint64_t* v = memory_.payload(id);
  if (v != nullptr) {
    memory_.mark_dirty(id);
  } else {
    v = disk_tier_.payload(id);
    RTDB_CHECK(v != nullptr, "update committed to uncached object %u",
               id.value());
    disk_tier_.mark_dirty(id);
  }
  return ++*v;
}

bool ClientCache::is_dirty(ObjectId id) const {
  return memory_.is_dirty(id) || disk_tier_.is_dirty(id);
}

std::optional<bool> ClientCache::drop(ObjectId id) {
  if (auto dirty = memory_.erase(id)) return dirty;
  return disk_tier_.erase(id);
}

void ClientCache::mark_clean(ObjectId id) {
  // Re-inserting at the same tier with a clean bit: LruBuffer has no
  // "clear dirty", so take + insert preserving tier and version.
  if (auto copy = memory_.take(id)) {
    memory_.insert(id, /*dirty=*/false, copy->payload);
  } else if (auto copy = disk_tier_.take(id)) {
    disk_tier_.insert(id, /*dirty=*/false, copy->payload);
  }
}

std::vector<ObjectId> ClientCache::clear() {
  std::vector<ObjectId> dirty;
  for (const ObjectId id : memory_.resident_pages()) {
    if (memory_.is_dirty(id)) dirty.push_back(id);
  }
  for (const ObjectId id : disk_tier_.resident_pages()) {
    if (disk_tier_.is_dirty(id)) dirty.push_back(id);
  }
  for (const ObjectId id : memory_.resident_pages()) memory_.erase(id);
  for (const ObjectId id : disk_tier_.resident_pages()) disk_tier_.erase(id);
  return dirty;
}

void ClientCache::validate_invariants() const {
  memory_.validate_invariants();
  disk_tier_.validate_invariants();
  for (const ObjectId id : memory_.resident_pages()) {
    RTDB_CHECK(!disk_tier_.contains(id),
               "object %u resident in both cache tiers", id);
  }
}

double ClientCache::hit_rate() const {
  const auto total = hits_.value() + misses_.value();
  return total ? static_cast<double>(hits_.value()) /
                     static_cast<double>(total)
               : 0.0;
}

}  // namespace rtdb::storage
