#include "lock/global_lock_table.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/perf.hpp"

namespace rtdb::lock {

void GlobalLockTable::validate_invariants() const {
  std::size_t holds_total = 0;
  for (std::uint32_t i = 0; i < slots_.size(); ++i) {
    const State& st = slots_[i];
    const ObjectId obj{i};
    if (!st.tracked) {
      RTDB_CHECK(st.quiescent(), "untracked obj %u keeps state", i);
      RTDB_CHECK(st.queue.expired_dropped() == 0,
                 "untracked obj %u keeps an expiry counter", i);
      continue;
    }
    RTDB_CHECK(st.tracked_pos < tracked_.size() &&
                   tracked_[st.tracked_pos] == i,
               "obj %u tracked-list position is stale", i);
    st.queue.validate_invariants();
    for (std::size_t h = 0; h < st.holders.size(); ++h) {
      const GlobalHold& hold = st.holders[h];
      RTDB_CHECK(hold.client != kInvalidClient,
                 "obj %u holder %zu has no client", i, h);
      RTDB_CHECK(hold.mode != LockMode::kNone,
                 "obj %u holder client %d holds kNone", i,
                 hold.client.value());
      const auto c = static_cast<std::size_t>(hold.client.value());
      RTDB_CHECK(c < by_client_.size() && by_client_[c].contains(obj),
                 "obj %u holder client %d missing from by-client index", i,
                 hold.client.value());
      for (std::size_t j = h + 1; j < st.holders.size(); ++j) {
        const GlobalHold& o = st.holders[j];
        RTDB_CHECK(o.client != hold.client,
                   "obj %u has duplicate holder client %d", i,
                   hold.client.value());
        RTDB_CHECK(compatible(hold.mode, o.mode),
                   "obj %u holders %d (%s) and %d (%s) are incompatible", i,
                   hold.client.value(), to_string(hold.mode).data(),
                   o.client.value(), to_string(o.mode).data());
      }
    }
    holds_total += st.holders.size();
    for (std::size_t r = 0; r < st.recalls.size(); ++r) {
      for (std::size_t s = r + 1; s < st.recalls.size(); ++s) {
        RTDB_CHECK(st.recalls[r] != st.recalls[s],
                   "obj %u records a duplicate recall for client %d", i,
                   st.recalls[r].value());
      }
    }
    if (st.circulating) {
      RTDB_CHECK(st.circulating_last != kInvalidClient,
                 "obj %u circulates with no last client", i);
    } else {
      RTDB_CHECK(st.circulating_last == kInvalidClient,
                 "obj %u keeps a stale circulation tail", i);
    }
  }
  for (const std::uint32_t obj : tracked_) {
    RTDB_CHECK(obj < slots_.size() && slots_[obj].tracked,
               "tracked list names untracked obj %u", obj);
  }
  // The reverse index holds exactly the (client, obj) hold pairs — nothing
  // stale, nothing missing (the forward direction was checked above).
  std::size_t indexed_total = 0;
  for (std::size_t c = 0; c < by_client_.size(); ++c) {
    const auto& objs = by_client_[c];
    objs.validate_invariants();
    const ClientId client{static_cast<std::int32_t>(c)};
    objs.for_each([&](ObjectId obj) {
      RTDB_CHECK(holder_mode(obj, client) != LockMode::kNone,
                 "by-client index names client %zu on obj %u without a hold",
                 c, obj.value());
    });
    indexed_total += objs.size();
  }
  RTDB_CHECK(indexed_total == holds_total,
             "by-client index counts %zu holds, table has %zu", indexed_total,
             holds_total);
}

GlobalLockTable::State& GlobalLockTable::state(ObjectId obj) {
  const std::size_t i = obj.value();
  if (i >= slots_.size()) slots_.resize(i + 1);
  State& st = slots_[i];
  if (!st.tracked) {
    st.tracked = true;
    st.tracked_pos = static_cast<std::uint32_t>(tracked_.size());
    tracked_.push_back(static_cast<std::uint32_t>(i));
  }
  return st;
}

const GlobalLockTable::State* GlobalLockTable::state_if_any(
    ObjectId obj) const {
  const std::size_t i = obj.value();
  if (i >= slots_.size() || !slots_[i].tracked) return nullptr;
  return &slots_[i];
}

common::FlatSet<ObjectId>& GlobalLockTable::by_client(ClientId client) {
  const auto i = static_cast<std::size_t>(client.value());
  if (i >= by_client_.size()) by_client_.resize(i + 1);
  return by_client_[i];
}

void GlobalLockTable::untrack(std::uint32_t obj) {
  State& st = slots_[obj];
  expired_dropped_retired_ += st.queue.expired_dropped();
  st.holders.clear();
  st.queue.reset();
  st.recalls.clear();
  st.circulating = false;
  st.circulating_last = kInvalidClient;
  st.tracked = false;
  const std::uint32_t pos = st.tracked_pos;
  tracked_[pos] = tracked_.back();
  slots_[tracked_[pos]].tracked_pos = pos;
  tracked_.pop_back();
}

LockMode GlobalLockTable::holder_mode(ObjectId obj, ClientId client) const {
  const State* st = state_if_any(obj);
  if (!st) return LockMode::kNone;
  for (const auto& h : st->holders) {
    if (h.client == client) return h.mode;
  }
  return LockMode::kNone;
}

std::vector<GlobalHold> GlobalLockTable::holders(ObjectId obj) const {
  const State* st = state_if_any(obj);
  return st ? st->holders : std::vector<GlobalHold>{};
}

bool GlobalLockTable::has_conflict(ObjectId obj, LockMode mode,
                                   ClientId requester) const {
  RTDB_PERF_COUNT(kGltConflictScans);
  const State* st = state_if_any(obj);
  if (!st) return false;
  for (const auto& h : st->holders) {
    if (h.client != requester && !compatible(h.mode, mode)) return true;
  }
  return false;
}

bool GlobalLockTable::can_grant(ObjectId obj, ClientId client,
                                LockMode mode) const {
  RTDB_PERF_COUNT(kGltConflictScans);
  const State* st = state_if_any(obj);
  if (!st) return true;
  if (st->circulating) return false;  // the object is out on a forward list
  return std::all_of(st->holders.begin(), st->holders.end(),
                     [&](const GlobalHold& h) {
                       return h.client == client || compatible(h.mode, mode);
                     });
}

void GlobalLockTable::add_holder(ObjectId obj, ClientId client,
                                 LockMode mode) {
  ++mutations_;
  RTDB_PERF_COUNT(kGltGrants);
  State& st = state(obj);
  for (auto& h : st.holders) {
    if (h.client == client) {
      h.mode = stronger(h.mode, mode);
      return;
    }
  }
  st.holders.push_back(GlobalHold{client, mode});
  by_client(client).insert(obj);
}

LockMode GlobalLockTable::remove_holder(ObjectId obj, ClientId client) {
  ++mutations_;
  State* st = const_cast<State*>(state_if_any(obj));
  if (!st) return LockMode::kNone;
  auto& hs = st->holders;
  auto h = std::find_if(hs.begin(), hs.end(), [&](const GlobalHold& g) {
    return g.client == client;
  });
  if (h == hs.end()) return LockMode::kNone;
  RTDB_PERF_COUNT(kGltReleases);
  const LockMode mode = h->mode;
  hs.erase(h);
  const auto c = static_cast<std::size_t>(client.value());
  if (c < by_client_.size()) by_client_[c].erase(obj);
  drop_if_quiescent(obj);
  return mode;
}

bool GlobalLockTable::downgrade_holder(ObjectId obj, ClientId client) {
  ++mutations_;
  State* st = const_cast<State*>(state_if_any(obj));
  if (!st) return false;
  for (auto& h : st->holders) {
    if (h.client == client && h.mode == LockMode::kExclusive) {
      h.mode = LockMode::kShared;
      return true;
    }
  }
  return false;
}

std::vector<ObjectId> GlobalLockTable::objects_held_by(ClientId client) const {
  const auto c = static_cast<std::size_t>(client.value());
  if (c >= by_client_.size()) return {};
  std::vector<ObjectId> out;
  out.reserve(by_client_[c].size());
  by_client_[c].for_each([&](ObjectId obj) { out.push_back(obj); });
  return out;
}

std::size_t GlobalLockTable::lock_count(ClientId client) const {
  const auto c = static_cast<std::size_t>(client.value());
  return c < by_client_.size() ? by_client_[c].size() : 0;
}

const ForwardList* GlobalLockTable::queue_if_any(ObjectId obj) const {
  const State* st = state_if_any(obj);
  return st ? &st->queue : nullptr;
}

std::vector<std::pair<ObjectId, TxnId>> GlobalLockTable::entries_of_client(
    ClientId client) const {
  std::vector<std::pair<ObjectId, TxnId>> out;
  for (const std::uint32_t obj : tracked_) {
    for (const auto& e : slots_[obj].queue.entries()) {
      if (e.client == client) out.emplace_back(ObjectId{obj}, e.txn);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void GlobalLockTable::mark_recall_sent(ObjectId obj, ClientId client) {
  auto& recalls = state(obj).recalls;
  if (std::find(recalls.begin(), recalls.end(), client) == recalls.end()) {
    recalls.push_back(client);
  }
}

bool GlobalLockTable::recall_pending(ObjectId obj, ClientId client) const {
  const State* st = state_if_any(obj);
  return st && std::find(st->recalls.begin(), st->recalls.end(), client) !=
                   st->recalls.end();
}

void GlobalLockTable::clear_recall(ObjectId obj, ClientId client) {
  State* st = const_cast<State*>(state_if_any(obj));
  if (!st) return;
  auto it = std::find(st->recalls.begin(), st->recalls.end(), client);
  if (it != st->recalls.end()) st->recalls.erase(it);
  drop_if_quiescent(obj);
}

std::size_t GlobalLockTable::recalls_outstanding(ObjectId obj) const {
  const State* st = state_if_any(obj);
  return st ? st->recalls.size() : 0;
}

void GlobalLockTable::set_circulating(ObjectId obj, ClientId last_client) {
  ++mutations_;
  State& st = state(obj);
  st.circulating = true;
  st.circulating_last = last_client;
}

void GlobalLockTable::clear_circulating(ObjectId obj) {
  ++mutations_;
  State* st = const_cast<State*>(state_if_any(obj));
  if (!st) return;
  st->circulating = false;
  st->circulating_last = kInvalidClient;
  drop_if_quiescent(obj);
}

bool GlobalLockTable::is_circulating(ObjectId obj) const {
  const State* st = state_if_any(obj);
  return st && st->circulating;
}

SiteId GlobalLockTable::location_of(ObjectId obj) const {
  RTDB_PERF_COUNT(kGltLocationQueries);
  const State* st = state_if_any(obj);
  if (!st) return kServerSite;
  if (st->circulating && st->circulating_last != kInvalidClient) {
    return site_of(st->circulating_last);
  }
  for (const auto& h : st->holders) {
    if (h.mode == LockMode::kExclusive) return site_of(h.client);
  }
  if (!st->holders.empty()) return site_of(st->holders.front().client);
  return kServerSite;
}

std::size_t GlobalLockTable::conflict_count_at(
    const std::vector<std::pair<ObjectId, LockMode>>& needs,
    ClientId client) const {
  RTDB_PERF_TIMER(kGltQuery);
  RTDB_PERF_ALLOC_SCOPE(kLock);
  std::size_t conflicts = 0;
  for (const auto& [obj, mode] : needs) {
    if (has_conflict(obj, mode, client)) ++conflicts;
  }
  return conflicts;
}

void GlobalLockTable::drop_if_quiescent(ObjectId obj) {
  const std::size_t i = obj.value();
  if (i < slots_.size() && slots_[i].tracked && slots_[i].quiescent()) {
    untrack(static_cast<std::uint32_t>(i));
  }
}

void GlobalLockTable::compact() {
  for (std::size_t i = tracked_.size(); i-- > 0;) {
    const std::uint32_t obj = tracked_[i];
    if (slots_[obj].quiescent()) untrack(obj);
  }
}

void GlobalLockTable::clear() {
  for (std::size_t i = tracked_.size(); i-- > 0;) untrack(tracked_[i]);
  for (auto& objs : by_client_) objs.clear();
}

GlobalLockTable::Snapshot GlobalLockTable::snapshot() const {
  Snapshot snap;
  for (const std::uint32_t obj : tracked_) {
    const State& st = slots_[obj];
    for (const GlobalHold& h : st.holders) {
      snap.holds.push_back({ObjectId{obj}, h.client, h.mode});
    }
    if (st.circulating) {
      snap.circulating.push_back({ObjectId{obj}, st.circulating_last});
    }
  }
  std::sort(snap.holds.begin(), snap.holds.end(),
            [](const Hold& a, const Hold& b) {
              if (a.object != b.object) return a.object < b.object;
              return a.client < b.client;
            });
  std::sort(snap.circulating.begin(), snap.circulating.end(),
            [](const Circulation& a, const Circulation& b) {
              return a.object < b.object;
            });
  return snap;
}

void GlobalLockTable::restore(const Snapshot& snap) {
  const std::uint64_t before = mutations_;
  for (const Hold& h : snap.holds) add_holder(h.object, h.client, h.mode);
  for (const Circulation& c : snap.circulating) {
    set_circulating(c.object, c.last_client);
  }
  mutations_ = before;
}

std::size_t GlobalLockTable::total_queued_entries() const {
  std::size_t total = 0;
  for (const std::uint32_t obj : tracked_) total += slots_[obj].queue.size();
  return total;
}

std::size_t GlobalLockTable::circulating_objects() const {
  std::size_t total = 0;
  for (const std::uint32_t obj : tracked_) {
    if (slots_[obj].circulating) ++total;
  }
  return total;
}

std::uint64_t GlobalLockTable::total_expired_dropped() const {
  std::uint64_t total = expired_dropped_retired_;
  for (const std::uint32_t obj : tracked_) {
    total += slots_[obj].queue.expired_dropped();
  }
  return total;
}

}  // namespace rtdb::lock
