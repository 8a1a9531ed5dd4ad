#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/flat_hash.hpp"
#include "common/ids.hpp"
#include "common/perf.hpp"
#include "lock/forward_list.hpp"
#include "lock/modes.hpp"
#include "sim/stats.hpp"

/// \file global_lock_table.hpp
/// The server's global lock table: which *client* caches which lock on
/// which object ("since several clients can cache the same database objects,
/// the server maintains a global lock table to serialize updates to cached
/// data"). Pure bookkeeping + queries; the callback/grant *messaging* is
/// driven by the server node in rtdb::core, which makes this state machine
/// directly unit-testable.
///
/// Holders are typed ClientId throughout — the server itself never holds a
/// client-level lock, and the strong id makes handing the table a raw site
/// (or a transposed argument pair) a compile error. Only location_of() widens
/// back to SiteId, because "at the server" is a legitimate object location.
///
/// Each object also carries a deadline-ordered wait queue, which in the LS
/// configuration doubles as the next forward list (lock grouping, §3.4), a
/// set of outstanding recalls, and — while a shipped forward list circulates
/// among clients — the identity of the list's final client, which the server
/// reports as the object's location.
///
/// Storage: object ids are dense (the workload numbers the database
/// 0..db_size-1), so per-object state lives in a directly-indexed slab —
/// no hashing anywhere on the grant/release path — with a side list of
/// *tracked* (non-retired) objects for iteration. The per-client reverse
/// index is a flat open-addressing set per client. Iteration order of
/// either structure never feeds an ordered decision: every consumer
/// aggregates, audits, or sorts (see objects_held_by's caller).

namespace rtdb::lock {

/// One client-level lock.
struct GlobalHold {
  ClientId client = kInvalidClient;
  LockMode mode = LockMode::kNone;
};

/// Server-side lock/queue/recall state for the whole database.
class GlobalLockTable {
 public:
  // --- holder bookkeeping ------------------------------------------------

  /// Mode `client` holds on `obj` (kNone if none).
  [[nodiscard]] LockMode holder_mode(ObjectId obj, ClientId client) const;

  /// All client holds on `obj`.
  [[nodiscard]] std::vector<GlobalHold> holders(ObjectId obj) const;

  /// Calls `f(client)` for every client whose hold on `obj` conflicts with
  /// `mode` (excluding the requester itself), in holder order. One
  /// conflict scan; nothing is allocated.
  template <class F>
  void for_each_conflicting_holder(ObjectId obj, LockMode mode,
                                   ClientId requester, F&& f) const {
    RTDB_PERF_COUNT(kGltConflictScans);
    const State* st = state_if_any(obj);
    if (st == nullptr) return;
    for (const auto& h : st->holders) {
      if (h.client != requester && !compatible(h.mode, mode)) f(h.client);
    }
  }

  /// True if any other holder's mode conflicts with `mode` on `obj`.
  /// Existence test that stops at the first conflict.
  [[nodiscard]] bool has_conflict(ObjectId obj, LockMode mode,
                                  ClientId requester) const;

  /// True if granting (client, mode) needs no callback: every other holder
  /// is compatible with `mode`.
  [[nodiscard]] bool can_grant(ObjectId obj, ClientId client,
                               LockMode mode) const;

  /// Records a grant (new hold or upgrade to the stronger mode).
  void add_holder(ObjectId obj, ClientId client, LockMode mode);

  /// Removes a client's hold. Returns the mode it held (kNone if absent).
  LockMode remove_holder(ObjectId obj, ClientId client);

  /// EL -> SL downgrade (the paper's modified callback: an EL holder asked
  /// to yield to a *shared* request keeps the object with a SL). Returns
  /// false if the client held no EL.
  bool downgrade_holder(ObjectId obj, ClientId client);

  /// Objects a client currently holds locks on (unordered; the caller
  /// sorts when order matters).
  [[nodiscard]] std::vector<ObjectId> objects_held_by(ClientId client) const;

  /// Count of locks a client holds (load/diagnostics).
  [[nodiscard]] std::size_t lock_count(ClientId client) const;

  // --- wait queue / next forward list ------------------------------------

  /// Deadline-ordered pending requests for `obj` (mutable access: the
  /// server enqueues and harvests entries from it).
  ForwardList& queue(ObjectId obj) { return state(obj).queue; }
  [[nodiscard]] const ForwardList* queue_if_any(ObjectId obj) const;

  /// Calls fn(obj, queue) for every tracked object (audits/diagnostics).
  void for_each_queue(
      const std::function<void(ObjectId, const ForwardList&)>& fn) const {
    for (const std::uint32_t obj : tracked_) {
      fn(ObjectId{obj}, slots_[obj].queue);
    }
  }

  /// Every queued (object, txn) request entry belonging to `client`, in a
  /// deterministic (object-then-txn) order — the server's dead-client
  /// reclamation sweeps these out of the wait queues.
  [[nodiscard]] std::vector<std::pair<ObjectId, TxnId>> entries_of_client(
      ClientId client) const;

  // --- recall (callback) bookkeeping --------------------------------------

  void mark_recall_sent(ObjectId obj, ClientId client);
  [[nodiscard]] bool recall_pending(ObjectId obj, ClientId client) const;
  void clear_recall(ObjectId obj, ClientId client);
  [[nodiscard]] std::size_t recalls_outstanding(ObjectId obj) const;

  // --- forward-list circulation (LS) --------------------------------------

  /// Marks the object as travelling along a shipped forward list whose last
  /// entry is `last_client`.
  void set_circulating(ObjectId obj, ClientId last_client);

  /// Clears circulation (the object returned to the server).
  void clear_circulating(ObjectId obj);

  [[nodiscard]] bool is_circulating(ObjectId obj) const;

  // --- location ------------------------------------------------------------

  /// Where a requester should expect the object: the last client of a
  /// circulating forward list, else an exclusive holder, else any shared
  /// holder, else the server.
  [[nodiscard]] SiteId location_of(ObjectId obj) const;

  // --- H2 ------------------------------------------------------------------

  /// The paper's H2 cost: the number of `needs` entries that would sit
  /// behind conflicting locks if the transaction executed at `client` (locks
  /// held by `client` itself never conflict with it).
  [[nodiscard]] std::size_t conflict_count_at(
      const std::vector<std::pair<ObjectId, LockMode>>& needs,
      ClientId client) const;

  /// Drops empty per-object states (call after bursts of releases).
  void compact();

  /// Wipes the whole table — the server crashed and its volatile lock state
  /// is gone. Capacity is kept (slots are recycled, not freed) and the
  /// cumulative expired-drop and mutation counters survive, so post-restart
  /// telemetry stays monotone.
  void clear();

  // --- warm-standby snapshot ------------------------------------------------

  /// One client hold, as saved at a crash and replayed at promotion.
  struct Hold {
    ObjectId object{};
    ClientId client = kInvalidClient;
    LockMode mode = LockMode::kNone;
  };

  /// One circulating forward-list tail.
  struct Circulation {
    ObjectId object{};
    ClientId last_client = kInvalidClient;
  };

  /// The holder and circulation state a promoted standby takes over.
  struct Snapshot {
    std::vector<Hold> holds;               ///< (object, client) order
    std::vector<Circulation> circulating;  ///< object order
  };

  /// Sorted copy of every hold and circulation tail, so a replay does not
  /// depend on grant/upgrade interleaving or on slot recycling.
  [[nodiscard]] Snapshot snapshot() const;

  /// Replays `snap` into the table: holders, then circulation. Not counted
  /// in mutations() — the replay re-installs state the table already had.
  void restore(const Snapshot& snap);

  /// Calls to the five holder/circulation mutators (add_holder,
  /// remove_holder, downgrade_holder, set_circulating, clear_circulating)
  /// since construction, no-op calls included — the length of the stream a
  /// replicated lock server would ship to its standby.
  [[nodiscard]] std::uint64_t mutations() const { return mutations_; }

  [[nodiscard]] std::size_t tracked_objects() const {
    return tracked_.size();
  }

  // --- telemetry gauges -----------------------------------------------------

  /// Request entries queued across every object (sampler gauge).
  [[nodiscard]] std::size_t total_queued_entries() const;

  /// Objects currently out on a circulating forward list (sampler gauge).
  [[nodiscard]] std::size_t circulating_objects() const;

  /// Cumulative expired entries dropped by every queue (sampler counter).
  [[nodiscard]] std::uint64_t total_expired_dropped() const;

  /// Invariant audit: per-object holder sets have distinct clients with real
  /// modes and are pairwise compatible (the lock-mode compatibility matrix
  /// the whole callback scheme rests on); wait queues are priority-ordered;
  /// the by-client index mirrors the holder sets exactly; the tracked list
  /// names exactly the non-retired slots. Aborts on violation.
  void validate_invariants() const;

 private:
  struct State {
    std::vector<GlobalHold> holders;
    ForwardList queue;
    std::vector<ClientId> recalls;  ///< deduplicated; a handful of entries
    bool circulating = false;
    bool tracked = false;
    ClientId circulating_last = kInvalidClient;
    std::uint32_t tracked_pos = 0;  ///< index into tracked_ while tracked

    [[nodiscard]] bool quiescent() const {
      return holders.empty() && queue.empty() && recalls.empty() &&
             !circulating;
    }
  };

  /// Creates/revives the slot for `obj` (the map operator[] idiom).
  State& state(ObjectId obj);
  [[nodiscard]] const State* state_if_any(ObjectId obj) const;
  void drop_if_quiescent(ObjectId obj);
  /// Retires one tracked slot: accumulates its expiry counter, resets the
  /// state in place (capacity kept) and swap-removes it from tracked_.
  void untrack(std::uint32_t obj);

  common::FlatSet<ObjectId>& by_client(ClientId client);

  std::vector<State> slots_;            ///< directly indexed by ObjectId
  std::vector<std::uint32_t> tracked_;  ///< object ids of tracked slots
  /// Reverse index, directly indexed by ClientId (ids are dense 1..N).
  std::vector<common::FlatSet<ObjectId>> by_client_;

  /// Expired-drop counts of queues whose object state was already retired
  /// (dropped when quiescent) — keeps total_expired_dropped() cumulative.
  std::uint64_t expired_dropped_retired_ = 0;

  std::uint64_t mutations_ = 0;  ///< see mutations()
};

}  // namespace rtdb::lock
