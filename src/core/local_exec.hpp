#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/check.hpp"
#include "lock/local_lock_manager.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"
#include "txn/edf_queue.hpp"
#include "txn/transaction.hpp"

/// \file local_exec.hpp
/// One local execution path. The paper runs a transaction the same way at
/// whichever site holds it (CE server, CS/LS client, OCC client): local 2PL
/// with wait-for-graph admission, then ED dispatch onto a fixed pool of
/// executor threads. DESIGN.md decision 4 adds that a refused deadlock
/// victim restarts with bounded backoff. LocalExecutor writes all three once.
///
/// A host keeps its transactions as Live records derived from LocalTxn,
/// befriends its executor and provides `find(TxnId)` (nullptr once
/// resolved) and `on_executed(Live&)`. Lock hosts (OCC takes no locks) add
/// `on_locks_held(Live&)`, `count_refusal()`, `reset_attempt(Live&)` (a
/// victim restarts: release its locks, clear its per-attempt state) and
/// `abort_victim(Live&)` (out of retries or slack).

namespace rtdb::core {

/// What the local path keeps of a transaction; each host's Live extends it.
struct LocalTxn {
  txn::Transaction t;
  /// t.lock_needs(), computed once: what every attempt locks or fetches.
  std::vector<std::pair<ObjectId, lock::LockMode>> needs;
  std::size_t locks_pending = 0;  ///< local lock requests still queued
  /// Restarts so far. Callbacks of an earlier attempt carry an older epoch
  /// and drop out.
  std::uint32_t restarts = 0;
  std::uint32_t epoch = 0;
};

/// `id`'s record in a host's table of live transactions, or nullptr.
template <class Map>
auto* find_live(Map& live, TxnId id) {
  auto it = live.find(id);
  return it == live.end() ? nullptr : it->second.get();
}

/// The deadlock-victim restart rule (DESIGN.md decision 4).
struct RestartRule {
  std::uint32_t retries = 0;  ///< restarts allowed per transaction
  sim::Duration backoff{};    ///< the k-th restart waits k times this

  /// Backoff before the next attempt of a victim restarted `restarts` times,
  /// or nullopt when it aborts: it restarts while `restarts < retries` and
  /// `now + backoff·(restarts+1) < deadline`.
  [[nodiscard]] std::optional<sim::Duration> next(
      std::uint32_t restarts, sim::SimTime now, sim::SimTime deadline) const {
    const sim::Duration wait = backoff * static_cast<double>(restarts + 1);
    if (restarts >= retries || now + wait >= deadline) return std::nullopt;
    return wait;
  }
};

template <class Host>
class LocalExecutor {
 public:
  /// `slots` executor threads at `site`; lock hosts add their lock manager
  /// and restart rule.
  LocalExecutor(Host& host, sim::Simulator& sim, obs::Telemetry& tel,
                SiteId site, std::size_t slots,
                lock::LocalLockManager* locks = nullptr,
                RestartRule restart = {})
      : host_(host), sim_(sim), tel_(tel), site_(site), slots_(slots),
        locks_(locks), restart_(restart) {}

  /// `t` holds everything it needs: it turns ready, queues by deadline and
  /// starts once a slot is free.
  void make_ready(txn::Transaction& t) {
    t.state = txn::TxnState::kReady;
    if (tel_.spans_enabled()) tel_.txn_ready(t.id, sim_.now());
    emit(obs::EventKind::kTxnReady, t.id);
    ready_.push(t.id, t.deadline);
    pump();
  }

  /// Starts ready transactions in ED order while a slot is free, skipping
  /// entries resolved meanwhile (their deadline timer or abort did the
  /// accounting). A started transaction holds its slot until release().
  void pump() {
    while (busy_ < slots_) {
      const auto next = ready_.pop();
      if (!next) return;
      const TxnId id = *next;
      auto* live = host_.find(id);
      if (!live || live->t.state != txn::TxnState::kReady) continue;
      live->t.state = txn::TxnState::kExecuting;
      ++busy_;
      if (tel_.spans_enabled()) tel_.txn_exec_start(id, sim_.now());
      emit(obs::EventKind::kTxnExec, id);
      sim_.after(live->t.length, [this, id] {
        auto* l = host_.find(id);
        if (l && l->t.state == txn::TxnState::kExecuting) host_.on_executed(*l);
      });
    }
  }

  /// Frees the slot of a transaction that stops executing; the caller pumps
  /// once its own bookkeeping is done.
  void release() {
    RTDB_CHECK(busy_ > 0, "site %d frees an executor slot that none holds",
               site_.value());
    --busy_;
  }

  /// Crash: the ready queue and every slot die with the site.
  void clear() {
    ready_.clear();
    busy_ = 0;
  }

  [[nodiscard]] std::size_t busy() const { return busy_; }
  [[nodiscard]] std::size_t queued() const { return ready_.size(); }

  void validate_invariants() const {
    ready_.validate_invariants();
    RTDB_CHECK(busy_ <= slots_,
               "site %d runs %zu executors over the %zu-slot budget",
               site_.value(), busy_, slots_);
  }

  /// All-or-refuse acquisition of every need of `id`, in order. A request
  /// that would close a wait-for cycle is refused at admission, a waiter
  /// that a later, more urgent request closes one through is refused by its
  /// grant callback; either way the victim restarts.
  void acquire_locks(TxnId id) {
    auto* live = host_.find(id);
    if (!live || !txn::is_live(live->t.state)) return;
    live->t.state = txn::TxnState::kAcquiring;
    live->locks_pending = live->needs.size();
    const sim::SimTime deadline = live->t.deadline;
    const std::uint32_t epoch = live->epoch;
    for (const auto& [obj, mode] : live->needs) {
      const auto outcome = locks_->acquire(
          id, obj, mode, deadline,
          [this, id, epoch, queued_at = sim_.now()](bool granted) {
            auto* l = host_.find(id);
            if (!l || l->epoch != epoch || !txn::is_live(l->t.state)) return;
            if (!granted) return refused(id);
            if (tel_.spans_enabled()) {
              tel_.add_wait(id, obs::WaitBucket::kLock, sim_.now() - queued_at);
            }
            if (--l->locks_pending == 0) host_.on_locks_held(*l);
          });
      if (outcome == lock::LocalLockManager::Outcome::kDeadlock) {
        return refused(id);
      }
      if (outcome == lock::LocalLockManager::Outcome::kGranted) {
        --live->locks_pending;
      }
    }
    if (live->locks_pending == 0) host_.on_locks_held(*live);
  }

  /// A deadlock victim (refused here or by the server's wait-for graph)
  /// re-runs lock acquisition after the rule's backoff, or aborts.
  void restart_victim(TxnId id) {
    auto* live = host_.find(id);
    if (!live || !txn::is_live(live->t.state)) return;
    const auto backoff =
        restart_.next(live->restarts, sim_.now(), live->t.deadline);
    if (!backoff) return host_.abort_victim(*live);
    ++live->restarts;
    const std::uint32_t epoch = ++live->epoch;  // drops stale callbacks
    if (tel_.spans_enabled()) tel_.txn_restart(id, sim_.now());
    emit(obs::EventKind::kTxnRestart, id);
    host_.reset_attempt(*live);
    sim_.after(*backoff, [this, id, epoch] {
      auto* l = host_.find(id);
      if (l && l->epoch == epoch && txn::is_live(l->t.state)) {
        acquire_locks(id);
      }
    });
  }

 private:
  void emit(obs::EventKind kind, TxnId id) {
    if (tel_.events_enabled()) tel_.event(kind, sim_.now(), site_, id);
  }
  void refused(TxnId id) {
    host_.count_refusal();
    restart_victim(id);
  }

  Host& host_;
  sim::Simulator& sim_;
  obs::Telemetry& tel_;
  SiteId site_;
  std::size_t slots_;
  lock::LocalLockManager* locks_;
  RestartRule restart_;
  txn::EdfQueue<TxnId> ready_;
  std::size_t busy_ = 0;
};

/// The keys of `map` whose value passes `keep`, ascending: a sweep over a
/// hash map visits entries in an order that no bucket layout decides.
template <class Map, class Keep>
std::vector<typename Map::key_type> sorted_keys(const Map& map, Keep keep) {
  std::vector<typename Map::key_type> keys;
  keys.reserve(map.size());
  for (const auto& [key, value] : map) {
    if (keep(value)) keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

template <class Map>
std::vector<typename Map::key_type> sorted_keys(const Map& map) {
  return sorted_keys(map, [](const auto&) { return true; });
}

}  // namespace rtdb::core
