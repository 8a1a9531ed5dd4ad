#include "storage/buffer_manager.hpp"

#include <stdexcept>
#include <utility>

#include "common/check.hpp"

namespace rtdb::storage {

template <class Id, class Payload>
void LruBuffer<Id, Payload>::validate_invariants() const {
  RTDB_CHECK(index_.size() <= capacity_,
             "%zu resident pages exceed capacity %zu", index_.size(),
             capacity_);
  index_.validate_invariants();
  // Walk MRU -> LRU: every linked frame is indexed at its slot, links are
  // mutually consistent, and the walk covers exactly the resident count.
  std::size_t walked = 0;
  std::uint32_t prev = kNull;
  for (std::uint32_t s = head_; s != kNull; s = frames_[s].next) {
    RTDB_CHECK(s < frames_.size(), "LRU list names slot %u of %zu", s,
               frames_.size());
    const Frame& f = frames_[s];
    RTDB_CHECK(f.prev == prev, "LRU back-link broken at slot %u", s);
    const std::uint32_t* idx = index_.find(f.id);
    RTDB_CHECK(idx != nullptr && *idx == s,
               "page %llu resident but mis-indexed",
               static_cast<unsigned long long>(f.id.value()));
    prev = s;
    ++walked;
    RTDB_CHECK(walked <= frames_.size(), "LRU list cycle detected");
  }
  RTDB_CHECK(prev == tail_, "LRU tail %u does not terminate the list",
             tail_);
  RTDB_CHECK(walked == index_.size(),
             "index tracks %zu pages, LRU list holds %zu", index_.size(),
             walked);
  std::size_t free_walked = 0;
  for (std::uint32_t s = free_head_; s != kNull; s = frames_[s].next) {
    RTDB_CHECK(s < frames_.size(), "free list names slot %u of %zu", s,
               frames_.size());
    ++free_walked;
    RTDB_CHECK(free_walked <= frames_.size(), "free list cycle detected");
  }
  RTDB_CHECK(walked + free_walked == frames_.size(),
             "%zu resident + %zu free != %zu slab frames", walked,
             free_walked, frames_.size());
}

template <class Id, class Payload>
LruBuffer<Id, Payload>::LruBuffer(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("LruBuffer capacity must be >= 1");
  }
}

template <class Id, class Payload>
void LruBuffer<Id, Payload>::unlink(std::uint32_t slot) {
  Frame& f = frames_[slot];
  if (f.prev != kNull) {
    frames_[f.prev].next = f.next;
  } else {
    head_ = f.next;
  }
  if (f.next != kNull) {
    frames_[f.next].prev = f.prev;
  } else {
    tail_ = f.prev;
  }
}

template <class Id, class Payload>
void LruBuffer<Id, Payload>::link_front(std::uint32_t slot) {
  Frame& f = frames_[slot];
  f.prev = kNull;
  f.next = head_;
  if (head_ != kNull) frames_[head_].prev = slot;
  head_ = slot;
  if (tail_ == kNull) tail_ = slot;
}

template <class Id, class Payload>
void LruBuffer<Id, Payload>::touch(std::uint32_t slot) {
  if (head_ == slot) return;
  unlink(slot);
  link_front(slot);
}

template <class Id, class Payload>
bool LruBuffer<Id, Payload>::reference(Id id) {
  const std::uint32_t* slot = index_.find(id);
  if (slot == nullptr) {
    misses_.inc();
    return false;
  }
  hits_.inc();
  touch(*slot);
  return true;
}

template <class Id, class Payload>
std::optional<typename LruBuffer<Id, Payload>::Entry>
LruBuffer<Id, Payload>::insert(Id id, bool dirty, Payload payload) {
  if (const std::uint32_t* slot = index_.find(id)) {
    touch(*slot);
    Frame& f = frames_[*slot];
    f.dirty = f.dirty || dirty;
    return std::nullopt;
  }
  std::optional<Entry> evicted;
  if (index_.size() >= capacity_) {
    const std::uint32_t victim = tail_;
    Frame& v = frames_[victim];
    evicted = Entry{v.id, v.dirty, std::move(v.payload)};
    index_.erase(v.id);
    unlink(victim);
    v.next = free_head_;
    free_head_ = victim;
  }
  std::uint32_t slot;
  if (free_head_ != kNull) {
    slot = free_head_;
    free_head_ = frames_[slot].next;
  } else {
    slot = static_cast<std::uint32_t>(frames_.size());
    frames_.emplace_back();
  }
  frames_[slot].id = id;
  frames_[slot].dirty = dirty;
  frames_[slot].payload = std::move(payload);
  link_front(slot);
  index_.get_or_insert(id) = slot;
  return evicted;
}

template <class Id, class Payload>
bool LruBuffer<Id, Payload>::mark_dirty(Id id) {
  const std::uint32_t* slot = index_.find(id);
  if (slot == nullptr) return false;
  frames_[*slot].dirty = true;
  return true;
}

template <class Id, class Payload>
bool LruBuffer<Id, Payload>::is_dirty(Id id) const {
  const std::uint32_t* slot = index_.find(id);
  return slot != nullptr && frames_[*slot].dirty;
}

template <class Id, class Payload>
Payload* LruBuffer<Id, Payload>::payload(Id id) {
  const std::uint32_t* slot = index_.find(id);
  return slot == nullptr ? nullptr : &frames_[*slot].payload;
}

template <class Id, class Payload>
const Payload* LruBuffer<Id, Payload>::payload(Id id) const {
  const std::uint32_t* slot = index_.find(id);
  return slot == nullptr ? nullptr : &frames_[*slot].payload;
}

template <class Id, class Payload>
std::optional<typename LruBuffer<Id, Payload>::Entry>
LruBuffer<Id, Payload>::take(Id id) {
  const std::uint32_t* slot = index_.find(id);
  if (slot == nullptr) return std::nullopt;
  const std::uint32_t s = *slot;
  Frame& f = frames_[s];
  Entry gone{f.id, f.dirty, std::move(f.payload)};
  unlink(s);
  f.next = free_head_;
  free_head_ = s;
  index_.erase(id);
  return gone;
}

template <class Id, class Payload>
double LruBuffer<Id, Payload>::hit_rate() const {
  const auto total = hits_.value() + misses_.value();
  return total ? static_cast<double>(hits_.value()) /
                     static_cast<double>(total)
               : 0.0;
}

template <class Id, class Payload>
std::optional<Id> LruBuffer<Id, Payload>::lru_victim() const {
  if (tail_ == kNull) return std::nullopt;
  return frames_[tail_].id;
}

template <class Id, class Payload>
std::vector<Id> LruBuffer<Id, Payload>::resident_pages() const {
  std::vector<Id> pages;
  pages.reserve(index_.size());
  for (std::uint32_t s = head_; s != kNull; s = frames_[s].next) {
    pages.push_back(frames_[s].id);
  }
  return pages;
}

template class LruBuffer<PageId>;
template class LruBuffer<ObjectId, std::uint64_t>;

}  // namespace rtdb::storage
