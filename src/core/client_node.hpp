#pragma once

#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "common/dense_map.hpp"
#include "core/local_exec.hpp"
#include "core/protocol.hpp"
#include "fault/fault.hpp"
#include "lock/local_lock_manager.hpp"
#include "sim/resource.hpp"
#include "sim/stats.hpp"
#include "storage/client_cache.hpp"
#include "txn/transaction.hpp"

/// \file client_node.hpp
/// A client workstation of the CS-RTDBS / LS-CS-RTDBS: local ED scheduler,
/// local lock manager, two-tier object cache with cached server locks, the
/// callback/downgrade protocol, and — in the LS configuration — the H1/H2
/// site-selection logic, transaction shipping, decomposition, and
/// forward-list duties.

namespace rtdb::core {

class ClientServerSystem;

/// Client-side protocol engine and transaction pipeline.
class ClientNode {
 public:
  ClientNode(ClientServerSystem& sys, ClientId id, std::size_t index);

  ClientNode(const ClientNode&) = delete;
  ClientNode& operator=(const ClientNode&) = delete;

  /// A user transaction submitted at this client (origin here).
  void on_new_transaction(txn::Transaction t);

  // --- fault injection ------------------------------------------------------

  /// Crash: the site loses all volatile state — live transactions, both
  /// cache tiers, cached server locks, local locks, forward duties.
  /// Origin-owned work is recorded as missed; dirty pages become accounted
  /// version losses. No protocol traffic leaves a crashing node.
  void crash();

  /// Rejoins the site cold after a crash window ends.
  void recover();

  [[nodiscard]] bool crashed() const { return crashed_; }

  /// Server acknowledgment for a dirty object return (faults-active only):
  /// stops the bounded retransmission of that return.
  void on_return_acked(ObjectId obj, std::uint64_t version);

  // --- server crash / epoch-leased recovery -------------------------------

  /// The server crashed (perfect failure detection, as for client crashes).
  /// Grace-rebuild mode: server-blocked transactions whose slack cannot
  /// survive the outage miss immediately, and travelling forward duties
  /// convert to retained holds (the chain died with the server's
  /// circulation state). Warm-standby mode: only notes the outage — the
  /// standby promotes in moments and every lease carries over.
  void on_server_crash();

  /// The server is back under a new epoch. After a grace rebuild this
  /// client re-asserts every retained server lock (bounded retransmission
  /// until acked); after a failover the promoted snapshot of the crashed
  /// table already holds them.
  void on_server_restart(bool failover);

  /// The server's verdict on a re-assertion batch: accepted entries are
  /// leased under the new epoch, rejected ones are expired leases.
  void on_reassert_ack(const ReassertAck& ack);

  /// Warm-start install: the object is cached (clean) and the server has
  /// already registered our SL. No timing, no messages; call before the
  /// simulation starts.
  void warm_insert(ObjectId obj);

  // --- network entry points -------------------------------------------------
  void on_grant(Grant g);              ///< from the server (kObjectShip/kLockGrant)
  void on_forwarded_object(Grant g);   ///< from a peer (kObjectForward)
  void on_recall(Recall r);
  void on_location_reply(LocationReply reply);
  void on_shipped_txn(ShippedTxn shipped);
  void on_shipped_subtask(ShippedSubtask shipped);
  void on_remote_result(RemoteResult result);
  void on_denied(TxnId txn);           ///< server deadlock refusal

  // --- observability ------------------------------------------------------
  [[nodiscard]] const storage::ClientCache& cache() const { return cache_; }
  [[nodiscard]] const lock::LocalLockManager& lock_manager() const {
    return llm_;
  }
  [[nodiscard]] LoadInfo current_load() const;
  [[nodiscard]] ClientId id() const { return id_; }
  [[nodiscard]] SiteId site() const { return site_; }
  [[nodiscard]] std::size_t live_count() const {
    return live_.size() + away_.size();
  }
  [[nodiscard]] lock::LockMode cached_server_mode(ObjectId obj) const;

  // Gauge accessors for the telemetry sampler (read-only snapshots).
  [[nodiscard]] std::size_t ready_depth() const { return exec_.queued(); }
  [[nodiscard]] std::size_t executing() const { return exec_.busy(); }
  [[nodiscard]] std::size_t forward_duties() const { return duties_.size(); }

  void reset_stats();

  /// Invariant audit: local lock manager, two-tier cache, ED-ready queue,
  /// and executor-slot accounting. Aborts on violation.
  void validate_invariants() const;

 private:
  /// Why this client is waiting for a LocationReply for a transaction.
  enum class QueryPurpose : std::uint8_t {
    kNone,
    kDecompose,   ///< split a decomposable transaction by object location
    /// Ship or stay: H1 failed before admission, or (the transaction is
    /// already acquiring) the server reported conflicts and H2 decides.
    kPlacement,
  };

  /// A transaction (or sub-task) living at this client. It runs on
  /// another site's behalf when `origin != site_`.
  struct Live : LocalTxn {
    SiteId origin = kInvalidSite;  ///< where the user submitted it
    TxnId parent = kInvalidTxn;    ///< decomposed original (sub-tasks only)

    std::unordered_set<ObjectId> awaiting;  ///< waiting on the server
    bool cache_io_pending = false;  ///< the local I/O phase's join is due

    struct RequestMark {
      sim::SimTime sent_at{};
      lock::LockMode mode = lock::LockMode::kShared;
    };
    std::unordered_map<ObjectId, RequestMark> request_marks;  ///< Table 3

    std::vector<ObjectId> circulating_used;  ///< forward-duty objects bound
    QueryPurpose pending_query = QueryPurpose::kNone;
    sim::EventId deadline_timer = sim::kNoEvent;

    /// Bounded retransmission of the outstanding request batch (faults).
    fault::RetryLoop retry;
    sim::EventId retry_timer = sim::kNoEvent;
  };

  /// Origin-side record of a transaction running elsewhere: shipped whole
  /// or decomposed into sub-tasks. It owns the outcome until every answer
  /// is in, one fails, or the deadline passes.
  struct Away {
    txn::Transaction t;
    std::size_t remaining = 1;  ///< answers still out (1 when shipped whole)
    bool decomposed = false;    ///< answer synthesis here feeds ATL
    sim::EventId deadline_timer = sim::kNoEvent;
  };

  /// A forward list travelling with an object currently held here.
  struct ForwardDuty {
    std::vector<lock::ForwardEntry> rest;  ///< entries still to serve
    bool dirty = false;                    ///< object updated on this hop
    TxnId bound = kInvalidTxn;             ///< local txn using the object
    std::uint64_t version = 0;             ///< version of the carried copy
    std::uint32_t epoch = 0;               ///< server epoch the list shipped under
  };

  // --- pipeline ---------------------------------------------------------
  void begin(txn::Transaction t, SiteId origin, TxnId parent = kInvalidTxn);
  /// True for a user transaction submitted here and running here: the
  /// only kind whose outcome this client records directly.
  [[nodiscard]] bool owns_outcome(const Live& live) const {
    return live.origin == site_ && live.parent == kInvalidTxn;
  }
  void evaluate_objects(TxnId id);
  void send_batch(Live& live, const std::vector<ObjectNeed>& missing,
                  bool auto_proceed, bool retransmit = false);
  /// Arms the bounded request-retransmission timer (faults-active only).
  void arm_request_retry(TxnId id, sim::Duration delay);
  /// Timer body: retransmits, or defers past a server outage (budget-free).
  void request_retry_fired(TxnId id, std::uint32_t epoch);
  void need_satisfied(TxnId id, ObjectId obj);
  void maybe_ready(TxnId id);
  void handle_deadline(TxnId id);
  /// Tears down a live transaction; records the outcome when this client
  /// is its origin (and notifies the origin when it is not).
  void finish(TxnId id, txn::TxnState final_state);

  // LocalExecutor hooks (see local_exec.hpp).
  friend class LocalExecutor<ClientNode>;
  Live* find(TxnId id) { return find_live(live_, id); }
  /// Execution over: commit the accesses and finish.
  void on_executed(Live& live);
  /// All local locks held: evaluate the objects against the server.
  void on_locks_held(Live& live) {
    if (live.t.state == txn::TxnState::kAcquiring) evaluate_objects(live.t.id);
  }
  void count_refusal();
  /// A deadlock victim restarts: release its local locks, stop its request
  /// retransmission and forget what the refused attempt was waiting for.
  void reset_attempt(Live& live);
  void abort_victim(Live& live) {
    finish(live.t.id, txn::TxnState::kAborted);
  }

  // --- decisions (LS) -----------------------------------------------------
  [[nodiscard]] bool h1_admits(const txn::Transaction& t) const;
  void query_locations(Live& live, QueryPurpose purpose);
  void decide_placement(Live& live, const LocationReply& reply);
  void start_decomposition(Live& live, const LocationReply& reply);
  void ship_txn(TxnId id, ClientId to);
  /// Dissolves a local original's Live entry into an Away record awaiting
  /// `remaining` answers, with its own deadline timer.
  void send_away(TxnId id, std::size_t remaining, bool decomposed);

  // --- callbacks / duties -----------------------------------------------
  void process_recall(ObjectId obj, lock::LockMode wanted);
  /// A local transaction's lock on `obj` conflicts with a recall wanting
  /// `wanted`: the callback waits until it is released.
  [[nodiscard]] bool recall_blocked(ObjectId obj, lock::LockMode wanted) const;
  void check_deferred_recalls(const std::vector<ObjectId>& objs);
  void fulfil_forward_duty(ObjectId obj);
  void handle_incoming_object(Grant g, bool via_forward);
  /// Table 3: the object answering `live`'s request arrived; records its
  /// response time from the first request.
  void note_object_response(const Live& live, ObjectId obj);
  void on_cache_eviction(ObjectId obj, bool dirty, std::uint64_t version);

  /// Every ObjectReturn leaves through here. While faults are active, a
  /// dirty non-circulation return (the only copy of a committed version)
  /// is tracked until the server acknowledges it, retransmitted on timeout,
  /// and accounted as a lost version when the budget runs dry.
  void send_return(ObjectReturn ret);
  void arm_return_retry(ObjectId obj, sim::Duration delay);
  void return_retry_fired(ObjectId obj);

  // --- epoch-leased re-assertion (server crash recovery) ------------------
  /// Re-assertion of the retained lock on `obj` as cached now.
  [[nodiscard]] ReassertEntry reassert_entry(ObjectId obj) const;
  /// Sends one re-assertion batch (kLockReassert).
  void send_reassert(std::vector<ReassertEntry> entries, bool retransmit);
  void arm_reassert_retry(sim::Duration delay);
  void reassert_timer_fired();
  /// A single-object re-assertion after the initial restart batch (a
  /// forward hop converted to a retained hold post-restart).
  void late_reassert(ObjectId obj);
  /// The server refused (or never acknowledged) a re-assertion: the lease
  /// is gone. Releases the lock and copy; a dirty copy is an accounted
  /// version loss, and local transactions using the object abort.
  void expire_lease(ObjectId obj);

  void update_atl(const txn::Transaction& t, sim::SimTime commit_time);

  ClientServerSystem& sys_;
  ClientId id_;
  SiteId site_;  ///< site_of(id_), cached for telemetry/trace emission
  std::size_t index_;
  storage::ClientCache cache_;
  lock::LocalLockManager llm_;
  sim::SerialResource cpu_;

  /// Lock mode this client caches per object, mirroring the server's
  /// global lock table ("clients cache the locks for objects as well").
  /// Object ids are dense (0..db_size-1), so this is a directly-indexed
  /// array grown on first write; an out-of-range or defaulted slot means
  /// "no cached lock" (kNone), exactly like the absent map entry it
  /// replaced. cached_server_mode() is the hottest single lookup in the
  /// whole client (every need evaluation hits it) — a vector load beats
  /// the former unordered_map probe by an order of magnitude. That speed
  /// costs 1 B per object per client; the 8-byte copy versions are not
  /// worth that shape and live in cache_, next to the copies they describe.
  common::DenseArray<ObjectId, lock::LockMode> server_mode_;

  std::unordered_map<TxnId, std::unique_ptr<Live>> live_;
  std::unordered_map<TxnId, Away> away_;
  std::unordered_map<ObjectId, ForwardDuty> duties_;
  std::unordered_map<ObjectId, lock::LockMode> deferred_recalls_;

  /// Unacknowledged dirty returns awaiting the server's ack (faults only).
  struct PendingReturn {
    ObjectReturn ret;
    fault::RetryLoop retry;
    sim::EventId timer = sim::kNoEvent;
  };
  std::unordered_map<ObjectId, PendingReturn> pending_returns_;

  /// The site is inside a crash window: volatile state is gone and every
  /// handler drops incoming work on the floor.
  bool crashed_ = false;

  /// Server-crash tracking (quiescent on fault-free runs). server_epoch_
  /// mirrors the server's recovery epoch — messages stamped with an older
  /// epoch came from a dead incarnation and are rejected.
  std::uint32_t server_epoch_ = 1;
  bool server_down_ = false;

  /// Outstanding re-assertion batch (empty == idle). Retransmitted on the
  /// request timeout, bounded by the plan's retransmit budget.
  struct PendingReassert {
    std::vector<ReassertEntry> entries;
    fault::RetryLoop retry;
    sim::EventId timer = sim::kNoEvent;
  };
  PendingReassert reassert_;

  /// Local ED scheduler over client_executor_slots, with 2PL over llm_.
  LocalExecutor<ClientNode> exec_;

  /// Observed average transaction latency (H1's ATL_A).
  sim::MeanAccumulator atl_;
};

}  // namespace rtdb::core
