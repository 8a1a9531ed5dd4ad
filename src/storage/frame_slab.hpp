#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/check.hpp"

/// \file frame_slab.hpp
/// Intrusive LRU lists over a slab of frames: the list-splice code the
/// server's page pool (`LruBuffer`) and the client's two-tier object cache
/// (`ClientCache`) share. A frame is any struct with `prev`/`next` slot
/// links; the slab is a vector of them whose free slots are recycled
/// through the same `next` link, so a pool never allocates a node in
/// steady state. A list is only its head (MRU), tail (LRU) and length, so
/// one slab can carry several lists — the client cache threads both of its
/// tiers through one slab and moves a copy between them by relinking.

namespace rtdb::storage {

/// "No slot": the end of a list, or an unlinked frame.
inline constexpr std::uint32_t kNullSlot = 0xffffffffu;

/// `Frame` must have `std::uint32_t prev, next` members.
template <class Frame>
class FrameSlab {
 public:
  /// One list threaded through the slab: head = MRU, tail = LRU.
  struct List {
    std::uint32_t head = kNullSlot;
    std::uint32_t tail = kNullSlot;
    std::size_t size = 0;
  };

  [[nodiscard]] Frame& operator[](std::uint32_t s) { return frames_[s]; }
  [[nodiscard]] const Frame& operator[](std::uint32_t s) const {
    return frames_[s];
  }

  /// A slot for a new frame, reset to `Frame{}`: a recycled one when any
  /// is free, else a fresh one at the end of the slab. Not on any list.
  std::uint32_t acquire() {
    if (free_head_ == kNullSlot) {
      frames_.emplace_back();
      return static_cast<std::uint32_t>(frames_.size() - 1);
    }
    const std::uint32_t s = free_head_;
    free_head_ = frames_[s].next;
    frames_[s] = Frame{};
    return s;
  }

  /// Returns an unlinked slot to the free list.
  void release(std::uint32_t s) {
    frames_[s].next = free_head_;
    free_head_ = s;
  }

  void unlink(List& list, std::uint32_t s) {
    Frame& f = frames_[s];
    if (f.prev != kNullSlot) {
      frames_[f.prev].next = f.next;
    } else {
      list.head = f.next;
    }
    if (f.next != kNullSlot) {
      frames_[f.next].prev = f.prev;
    } else {
      list.tail = f.prev;
    }
    --list.size;
  }

  void link_front(List& list, std::uint32_t s) {
    Frame& f = frames_[s];
    f.prev = kNullSlot;
    f.next = list.head;
    if (list.head != kNullSlot) frames_[list.head].prev = s;
    list.head = s;
    if (list.tail == kNullSlot) list.tail = s;
    ++list.size;
  }

  /// Moves a listed frame to the MRU end of its list.
  void touch(List& list, std::uint32_t s) {
    if (list.head == s) return;
    unlink(list, s);
    link_front(list, s);
  }

  /// Calls `f(frame)` for every frame of `list`, MRU to LRU.
  template <class F>
  void for_each(const List& list, F&& f) const {
    for (std::uint32_t s = list.head; s != kNullSlot; s = frames_[s].next) {
      f(frames_[s]);
    }
  }

  /// Audits one list: every link names a slab slot, the back-links agree
  /// with the forward walk, the tail ends it and its length is the walked
  /// count. Calls `check(slot, frame)` on every frame. Aborts on violation.
  template <class F>
  void audit(const List& list, F&& check) const {
    std::size_t walked = 0;
    std::uint32_t prev = kNullSlot;
    for (std::uint32_t s = list.head; s != kNullSlot; s = frames_[s].next) {
      RTDB_CHECK(s < frames_.size(), "LRU list names slot %u of %zu", s,
                 frames_.size());
      RTDB_CHECK(frames_[s].prev == prev, "LRU back-link broken at slot %u",
                 s);
      check(s, frames_[s]);
      prev = s;
      ++walked;
      RTDB_CHECK(walked <= frames_.size(), "LRU list cycle detected");
    }
    RTDB_CHECK(prev == list.tail, "LRU tail %u does not terminate the list",
               list.tail);
    RTDB_CHECK(walked == list.size, "LRU list holds %zu frames, counts %zu",
               walked, list.size);
  }

  /// Audits the free list: together with the `listed` frames it accounts
  /// for every slab slot. Aborts on violation.
  void audit_free(std::size_t listed) const {
    std::size_t free = 0;
    for (std::uint32_t s = free_head_; s != kNullSlot; s = frames_[s].next) {
      RTDB_CHECK(s < frames_.size(), "free list names slot %u of %zu", s,
                 frames_.size());
      ++free;
      RTDB_CHECK(free <= frames_.size(), "free list cycle detected");
    }
    RTDB_CHECK(listed + free == frames_.size(),
               "%zu listed + %zu free != %zu slab frames", listed, free,
               frames_.size());
  }

 private:
  std::vector<Frame> frames_;
  std::uint32_t free_head_ = kNullSlot;
};

}  // namespace rtdb::storage
