#include "storage/buffer_manager.hpp"

#include <stdexcept>

#include "common/check.hpp"

namespace rtdb::storage {

template <class Id>
void LruBuffer<Id>::validate_invariants() const {
  RTDB_CHECK(index_.size() <= capacity_,
             "%zu resident pages exceed capacity %zu", index_.size(),
             capacity_);
  index_.validate_invariants();
  // Every linked frame is indexed at its slot, and the list and the index
  // describe exactly the same frames.
  frames_.audit(lru_, [&](std::uint32_t s, const Frame& f) {
    const std::uint32_t* idx = index_.find(f.id);
    RTDB_CHECK(idx != nullptr && *idx == s,
               "page %llu resident but mis-indexed",
               static_cast<unsigned long long>(f.id.value()));
  });
  RTDB_CHECK(lru_.size == index_.size(),
             "index tracks %zu pages, LRU list holds %zu", index_.size(),
             lru_.size);
  frames_.audit_free(lru_.size);
}

template <class Id>
LruBuffer<Id>::LruBuffer(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("LruBuffer capacity must be >= 1");
  }
}

template <class Id>
bool LruBuffer<Id>::reference(Id id) {
  const std::uint32_t* slot = index_.find(id);
  if (slot == nullptr) {
    misses_.inc();
    return false;
  }
  hits_.inc();
  frames_.touch(lru_, *slot);
  return true;
}

template <class Id>
std::optional<typename LruBuffer<Id>::Entry> LruBuffer<Id>::insert(
    Id id, bool dirty) {
  if (const std::uint32_t* slot = index_.find(id)) {
    frames_.touch(lru_, *slot);
    Frame& f = frames_[*slot];
    f.dirty = f.dirty || dirty;
    return std::nullopt;
  }
  std::optional<Entry> evicted;
  if (index_.size() >= capacity_) {
    const std::uint32_t victim = lru_.tail;
    const Frame& v = frames_[victim];
    evicted = Entry{v.id, v.dirty};
    index_.erase(v.id);
    frames_.unlink(lru_, victim);
    frames_.release(victim);
  }
  const std::uint32_t slot = frames_.acquire();
  frames_[slot].id = id;
  frames_[slot].dirty = dirty;
  frames_.link_front(lru_, slot);
  index_.get_or_insert(id) = slot;
  return evicted;
}

template <class Id>
bool LruBuffer<Id>::mark_dirty(Id id) {
  const std::uint32_t* slot = index_.find(id);
  if (slot == nullptr) return false;
  frames_[*slot].dirty = true;
  return true;
}

template <class Id>
bool LruBuffer<Id>::is_dirty(Id id) const {
  const std::uint32_t* slot = index_.find(id);
  return slot != nullptr && frames_[*slot].dirty;
}

template <class Id>
std::optional<bool> LruBuffer<Id>::erase(Id id) {
  const std::uint32_t* slot = index_.find(id);
  if (slot == nullptr) return std::nullopt;
  const std::uint32_t s = *slot;
  const bool dirty = frames_[s].dirty;
  frames_.unlink(lru_, s);
  frames_.release(s);
  index_.erase(id);
  return dirty;
}

template <class Id>
double LruBuffer<Id>::hit_rate() const {
  const auto total = hits_.value() + misses_.value();
  return total ? static_cast<double>(hits_.value()) /
                     static_cast<double>(total)
               : 0.0;
}

template <class Id>
std::optional<Id> LruBuffer<Id>::lru_victim() const {
  if (lru_.tail == kNullSlot) return std::nullopt;
  return frames_[lru_.tail].id;
}

template class LruBuffer<PageId>;

}  // namespace rtdb::storage
