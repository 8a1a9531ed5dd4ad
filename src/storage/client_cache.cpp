#include "storage/client_cache.hpp"

#include <stdexcept>

#include "common/check.hpp"

namespace rtdb::storage {

ClientCache::ClientCache(sim::Simulator& sim, ClientCacheConfig config)
    : sim_(sim), config_(config), disk_(sim, config.disk) {
  if (config.memory_capacity == 0 || config.disk_capacity == 0) {
    throw std::invalid_argument("ClientCache tier capacities must be >= 1");
  }
}

CacheTier ClientCache::tier_of(ObjectId id) const {
  const Frame* f = find(id);
  return f == nullptr ? CacheTier::kNone : f->tier;
}

std::optional<ClientCache::Frame> ClientCache::make_room_in_memory() {
  if (memory_.size < config_.memory_capacity) return std::nullopt;
  std::optional<Frame> evicted;
  const std::uint32_t demoted = memory_.tail;
  frames_.unlink(memory_, demoted);
  // Demotion writes the object to the local disk cache file.
  disk_.write();
  if (disk_tier_.size >= config_.disk_capacity) {
    evicted = frames_[disk_tier_.tail];
    forget(disk_tier_.tail);
  }
  frames_[demoted].tier = CacheTier::kDisk;
  frames_.link_front(disk_tier_, demoted);
  return evicted;
}

void ClientCache::place_in_memory(std::uint32_t s,
                                  const std::optional<Frame>& evicted) {
  frames_[s].tier = CacheTier::kMemory;
  frames_.link_front(memory_, s);
  if (evicted && on_evict_) {
    on_evict_(evicted->id, evicted->dirty, evicted->version);
  }
}

void ClientCache::forget(std::uint32_t s) {
  index_.erase(frames_[s].id);
  frames_.unlink(list_of(frames_[s].tier), s);
  frames_.release(s);
}

std::optional<sim::SimTime> ClientCache::access(
    ObjectId id, bool write, sim::Simulator::Callback done) {
  const std::uint32_t* slot = index_.find(id);
  if (slot == nullptr) {
    misses_.inc();
    return std::nullopt;
  }
  hits_.inc();
  const std::uint32_t s = *slot;
  Frame& f = frames_[s];
  f.dirty = f.dirty || write;
  if (f.tier == CacheTier::kMemory) {
    frames_.touch(memory_, s);
    const sim::SimTime when = sim_.now() + config_.memory_access_time;
    if (done) sim_.at(when, std::move(done));
    return when;
  }
  // Disk-tier hit: promote, demoting the memory LRU copy into the place it
  // left (so nothing is evicted); the demotion's write queues before the
  // promotion's read.
  frames_.unlink(disk_tier_, s);
  place_in_memory(s, make_room_in_memory());
  return disk_.read(std::move(done));
}

void ClientCache::insert(ObjectId id, bool dirty, std::uint64_t version) {
  // Already cached (e.g. re-granted lock on a resident object): refresh
  // dirty state and version in place; recency only in the memory tier.
  if (const std::uint32_t* slot = index_.find(id)) {
    Frame& f = frames_[*slot];
    f.dirty = f.dirty || dirty;
    f.version = version;
    if (f.tier == CacheTier::kMemory) frames_.touch(memory_, *slot);
    return;
  }
  const std::optional<Frame> evicted = make_room_in_memory();
  const std::uint32_t s = frames_.acquire();
  frames_[s].id = id;
  frames_[s].dirty = dirty;
  frames_[s].version = version;
  index_.get_or_insert(id) = s;
  place_in_memory(s, evicted);
}

std::uint64_t ClientCache::version_of(ObjectId id) const {
  const Frame* f = find(id);
  return f == nullptr ? 0 : f->version;
}

std::uint64_t ClientCache::commit_write(ObjectId id) {
  const std::uint32_t* slot = index_.find(id);
  RTDB_CHECK(slot != nullptr, "update committed to uncached object %u",
             id.value());
  Frame& f = frames_[*slot];
  f.dirty = true;
  return ++f.version;
}

bool ClientCache::is_dirty(ObjectId id) const {
  const Frame* f = find(id);
  return f != nullptr && f->dirty;
}

std::optional<bool> ClientCache::drop(ObjectId id) {
  const std::uint32_t* slot = index_.find(id);
  if (slot == nullptr) return std::nullopt;
  const std::uint32_t s = *slot;
  const bool dirty = frames_[s].dirty;
  forget(s);
  return dirty;
}

void ClientCache::mark_clean(ObjectId id) {
  const std::uint32_t* slot = index_.find(id);
  if (slot == nullptr) return;
  Frame& f = frames_[*slot];
  f.dirty = false;
  frames_.touch(list_of(f.tier), *slot);
}

std::vector<ObjectId> ClientCache::clear() {
  std::vector<ObjectId> dirty;
  for (Slab::List* tier : {&memory_, &disk_tier_}) {
    while (tier->head != kNullSlot) {
      const Frame& f = frames_[tier->head];
      if (f.dirty) dirty.push_back(f.id);
      forget(tier->head);
    }
  }
  return dirty;
}

std::vector<ObjectId> ClientCache::resident(CacheTier tier) const {
  std::vector<ObjectId> ids;
  if (tier == CacheTier::kNone) return ids;
  const Slab::List& list = list_of(tier);
  ids.reserve(list.size);
  frames_.for_each(list, [&](const Frame& f) { ids.push_back(f.id); });
  return ids;
}

void ClientCache::validate_invariants() const {
  RTDB_CHECK(memory_.size <= config_.memory_capacity,
             "%zu copies in memory exceed capacity %zu", memory_.size,
             config_.memory_capacity);
  RTDB_CHECK(disk_tier_.size <= config_.disk_capacity,
             "%zu copies on disk exceed capacity %zu", disk_tier_.size,
             config_.disk_capacity);
  index_.validate_invariants();
  for (const CacheTier tier : {CacheTier::kMemory, CacheTier::kDisk}) {
    frames_.audit(list_of(tier), [&](std::uint32_t s, const Frame& f) {
      const std::uint32_t* idx = index_.find(f.id);
      RTDB_CHECK(idx != nullptr && *idx == s,
                 "object %u listed at slot %u but not indexed there",
                 f.id.value(), s);
      RTDB_CHECK(f.tier == tier, "object %u on tier list %d carries tier %d",
                 f.id.value(), static_cast<int>(tier),
                 static_cast<int>(f.tier));
    });
  }
  RTDB_CHECK(index_.size() == memory_.size + disk_tier_.size,
             "index holds %zu copies, tier lists %zu + %zu", index_.size(),
             memory_.size, disk_tier_.size);
  frames_.audit_free(memory_.size + disk_tier_.size);
}

double ClientCache::hit_rate() const {
  const auto total = hits_.value() + misses_.value();
  return total ? static_cast<double>(hits_.value()) /
                     static_cast<double>(total)
               : 0.0;
}

}  // namespace rtdb::storage
