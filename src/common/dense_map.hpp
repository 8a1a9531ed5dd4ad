#pragma once

#include <cstddef>
#include <vector>

/// \file dense_map.hpp
/// Directly-indexed replacement for `unordered_map<Id, V>` keyed by *dense*
/// strong ids (the workload numbers objects 0..db_size-1 and clients 1..N).
/// A grow-on-write vector where a defaulted or out-of-range slot means "no
/// entry" — callers that relied on unordered_map's absent-means-default
/// reads (version 0, mode kNone, count 0) keep identical semantics while a
/// lookup collapses to one bounds check and one indexed load.
///
/// Not a general map: there is no occupancy bit, so V{} and "absent" are
/// indistinguishable by design — only use it where the map it replaces
/// treated the two identically. No iteration is offered either; every
/// consumer does point reads/writes (the audits that need enumeration keep
/// real tables).
///
/// Cost: the array grows to sizeof(V) × (highest id written + 1), whatever
/// the number of live entries. Kept once per system (the server's and the
/// auditor's version tables) that is a fixed price. Kept once per *client*
/// it costs clients × db_size, so a per-site array must justify its bytes
/// per object: `ClientNode::server_mode_` is 1 B and the client's hottest
/// lookup. State whose extent follows what a client holds belongs with
/// the holding (copy versions live in the `storage::ClientCache` frame of
/// each cached copy).

namespace rtdb::common {

/// `Id` must expose `value()` convertible to an unsigned index.
template <class Id, class V>
class DenseArray {
 public:
  /// Read-only lookup: the stored value, or `V{}` when never written.
  [[nodiscard]] V value_or_default(Id id) const {
    const auto i = static_cast<std::size_t>(id.value());
    return i < slots_.size() ? slots_[i] : V{};
  }

  /// Mutable slot, growing the backing store on demand (operator[] idiom).
  [[nodiscard]] V& slot(Id id) {
    const auto i = static_cast<std::size_t>(id.value());
    if (i >= slots_.size()) slots_.resize(i + 1);
    return slots_[i];
  }

  /// Erase-equivalent: resets the slot to V{} without shrinking.
  void reset(Id id) {
    const auto i = static_cast<std::size_t>(id.value());
    if (i < slots_.size()) slots_[i] = V{};
  }

  /// Drops every entry (capacity kept).
  void clear() { slots_.clear(); }

  /// Backing-store extent (highest written id + 1, diagnostics only).
  [[nodiscard]] std::size_t extent() const { return slots_.size(); }

 private:
  std::vector<V> slots_;
};

}  // namespace rtdb::common
