#pragma once

#include <unordered_map>

#include "common/dense_map.hpp"
#include "core/protocol.hpp"
#include "net/message.hpp"
#include "lock/global_lock_table.hpp"
#include "lock/wait_for_graph.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "storage/paged_file.hpp"

/// \file server_node.hpp
/// The database server of the CS-RTDBS / LS-CS-RTDBS: performs "only
/// low-level database functionalities (I/Os, buffering and management of
/// concurrency) on the behalf of requesting clients" — the global lock
/// table with callback locking, the paged file, the load table, and (LS)
/// collection windows + forward-list circulation and the H2 location
/// service.

namespace rtdb::core {

class ClientServerSystem;

/// Server-side protocol engine.
class ServerNode {
 public:
  explicit ServerNode(ClientServerSystem& sys);

  ServerNode(const ServerNode&) = delete;
  ServerNode& operator=(const ServerNode&) = delete;

  // --- network entry points (invoked at message delivery) -----------------

  /// A transaction's batched object/lock requests.
  void on_request_batch(ObjectRequestBatch batch);

  /// Where are these objects / who should execute this transaction?
  void on_location_query(LocationQuery query);

  /// An object/lock coming back (recall response, voluntary return, or end
  /// of a forward list).
  void on_object_return(ObjectReturn ret);

  /// The client's answer to a conflict LocationReply: proceed with the
  /// parked batch (queue + callbacks) or withdraw it (the transaction is
  /// shipping elsewhere or died).
  void on_proceed_decision(ProceedDecision decision);

  // --- fault recovery (active only while a FaultPlan is installed) --------

  /// Declared-dead reclamation: removes every lock the client cached,
  /// sweeps its queued requests (and their wait-for edges), drops its
  /// parked batches and load entry, and re-pumps the affected objects.
  void reclaim_client(ClientId client);

  /// Version of the server's committed copy (fault-loss accounting).
  [[nodiscard]] std::uint64_t stored_version(ObjectId obj) const {
    return version_of(obj);
  }

  // --- server crash / epoch-leased recovery -------------------------------

  /// Server crash: every piece of volatile state — global lock table,
  /// forward lists, queued-txn records, parked batches, collection windows,
  /// load table — is gone. The paged file and the version array survive
  /// (stable storage). Async continuations of the dead incarnation are
  /// neutralized by the incarnation guard. With a warm standby armed, the
  /// lock table's sorted snapshot is saved first: it is the state the
  /// standby holds, since it applied every mutation up to this instant.
  void crash();

  /// Server restart: bumps the recovery epoch, then either promotes the
  /// warm standby (`failover`, lock table replayed from the snapshot saved
  /// at the crash, serving immediately) or opens the grace window during
  /// which surviving holders re-assert their grants. With
  /// FaultPlan::recovery_disabled the server serves straight from an empty
  /// table — the WILL_FAIL gate's broken build.
  void restart(bool failover);

  /// A client's kLockReassert batch (epoch-leased re-registration).
  void on_reassert(ReassertBatch batch);

  /// Current recovery epoch (1 until the first restart).
  [[nodiscard]] std::uint32_t epoch() const { return epoch_; }

  /// True while the post-restart grace window is open.
  [[nodiscard]] bool in_grace() const { return in_grace_; }

  /// Lock-table mutations the warm standby has applied so far (gauge; 0
  /// unless the plan arms a standby).
  [[nodiscard]] std::uint64_t standby_mutations() const;

  // --- load table -----------------------------------------------------------

  /// Piggybacked load refresh (free: rides on every client->server message).
  void update_load(ClientId client, const LoadInfo& load);

  // --- diagnostics ------------------------------------------------------------

  [[nodiscard]] const lock::GlobalLockTable& lock_table() const {
    return glt_;
  }
  [[nodiscard]] const storage::PagedFile& paged_file() const { return pf_; }
  [[nodiscard]] double cpu_utilization() const { return cpu_.utilization(); }
  [[nodiscard]] double disk_utilization() const {
    return pf_.disk().utilization();
  }

  // Gauge accessors for the telemetry sampler (read-only snapshots).
  [[nodiscard]] std::size_t open_windows() const { return windows_.size(); }
  [[nodiscard]] std::size_t parked_batches() const { return parked_.size(); }
  [[nodiscard]] std::size_t queued_txns() const { return queued_.size(); }

  void reset_stats();

  /// Invariant audit: global lock table, wait-for graph, buffer pool, and
  /// the server's own cross-structure bookkeeping (queued-entry counts vs
  /// the per-object queues). Aborts on violation.
  void validate_invariants() const;

  /// Warm-start bookkeeping: registers `client`'s SL on `obj` without any
  /// protocol traffic (the matching client called warm_insert).
  void warm_register(ObjectId obj, ClientId client) {
    glt_.add_holder(obj, client, lock::LockMode::kShared);
  }

  /// Warm-start: page resident in the server buffer, no timing.
  void warm_preload(ObjectId obj) { pf_.preload(obj); }

 private:
  /// Request processing after the per-message CPU overhead.
  void process_batch(const ObjectRequestBatch& batch);

  /// Grants one need: reserves the lock and ships data (or a lock-only
  /// grant when the client holds a copy).
  void grant_now(TxnId txn, ClientId client, const ObjectNeed& need);

  /// Queues the conflicted needs of a batch, runs the wait-for-graph
  /// admission test, and triggers recalls/windows. Returns false when the
  /// request was refused (deadlock) — the whole transaction is denied.
  bool enqueue_conflicted(const ObjectRequestBatch& batch,
                          const std::vector<ObjectNeed>& conflicted);

  /// Sends callbacks to every holder conflicting with the strongest queued
  /// mode (skipping holders already being recalled).
  void send_recalls(ObjectId obj);

  /// Strongest lock mode wanted by the object's queue (kShared when only
  /// readers wait).
  [[nodiscard]] lock::LockMode strongest_queued_mode(ObjectId obj);

  /// Opens the lock-grouping collection window if the configuration calls
  /// for one and none is open.
  void maybe_open_window(ObjectId obj);
  void on_window_end(ObjectId obj);

  /// Cancels a window whose purpose is spent (recalls answered, no group
  /// to grow) so a lone waiter is not parked until the wall-clock end.
  void maybe_close_window_early(ObjectId obj);

  /// Length of the queue prefix one forward list could carry (EL-run then
  /// SL fan-out run, both capped). Drops expired entries it walks past.
  std::size_t groupable_prefix(ObjectId obj);

  /// Tries to serve the object's queue: plain grants, or a forward-list
  /// shipment when lock grouping applies.
  void pump_object(ObjectId obj);

  /// Ships a grant to a client: paged-file read (when data travels), then
  /// the wire.
  void ship(ClientId to, Grant grant, net::MessageKind kind);
  void ship_send(ClientId to, net::MessageKind kind, Grant grant);

  /// Tells a client its transaction was refused (deadlock admission).
  void deny_txn(TxnId txn, ClientId client);

  /// H2 material: candidate sites with conflict counts, data availability
  /// and loads.
  std::vector<LocationReply::Candidate> build_candidates(
      const std::vector<std::pair<ObjectId, lock::LockMode>>& needs,
      ClientId origin) const;

  /// Lazily discards parked batches whose transaction deadline passed.
  void prune_parked();

  /// Wait-for-graph bookkeeping for queued entries.
  void note_queued(TxnId txn, ClientId client, ObjectId obj);
  void note_entry_gone(TxnId txn, ObjectId obj);
  void note_skipped(const std::vector<lock::ForwardEntry>& skipped,
                    ObjectId obj);

  // --- fault recovery internals (no-ops on fault-free runs) ---------------

  /// True when (txn, client) already has a queued entry on `obj` — the
  /// duplicate-suppression key for retransmitted request batches.
  [[nodiscard]] bool request_queued(TxnId txn, ClientId client,
                                    ObjectId obj) const;

  /// Re-sends a recall that was never answered (the callback or its return
  /// was dropped); disarms itself once the recall clears.
  void arm_recall_watchdog(ObjectId obj, ClientId client);

  /// Repairs a circulating forward list that never came home: past the last
  /// entry's deadline plus a grace, the server's copy becomes authoritative
  /// again and any update the lost copy carried is an accounted loss.
  void arm_circulation_watchdog(ObjectId obj,
                                const std::vector<lock::ForwardEntry>& list);

  /// Acknowledges a dirty (non-circulation) return so the client stops
  /// retransmitting it.
  void ack_return(const ObjectReturn& ret);

  /// Recall-attempt bookkeeping (faults-active only; see recall_tries_).
  [[nodiscard]] std::uint32_t recall_tries(ObjectId obj, ClientId client) const;
  void clear_recall_tries(ObjectId obj, ClientId client);

  /// Grace-window close: serve the batches parked behind the rebuild.
  void end_grace();

  ClientServerSystem& sys_;
  lock::GlobalLockTable glt_;
  storage::PagedFile pf_;
  sim::SerialResource cpu_;
  lock::WaitForGraph<lock::TxnOrClientNode> wfg_;
  std::unordered_map<ObjectId, sim::EventId> windows_;
  std::unordered_map<ClientId, LoadInfo> loads_;

  /// Queued-entry count per transaction (wait-for-graph lifetime).
  struct QueuedTxn {
    ClientId client = kInvalidClient;
    std::size_t entries = 0;
  };
  std::unordered_map<TxnId, QueuedTxn> queued_;

  /// Conflicted batches awaiting the client's ship-or-stay decision. The
  /// requests stay here so a "proceed" costs one control message instead of
  /// re-sending every per-object request frame.
  std::unordered_map<TxnId, ObjectRequestBatch> parked_;

  /// Version of the server's copy of each object (0 = never written).
  /// Dense ids -> directly-indexed array (absent == 0, as before).
  common::DenseArray<ObjectId, std::uint64_t> versions_;

  /// Circulation generation per object: a watchdog only repairs the
  /// circulation it was armed for (faults-active only).
  common::DenseArray<ObjectId, std::uint64_t> circ_seq_;

  /// Recalls sent per (object, holder) without a was-held answer (faults-
  /// active only). A "not held" reply to the FIRST recall is usually the
  /// benign wire race — the small recall frame overtaking its own large
  /// data grant — so the registration is kept and the next pump re-recalls.
  /// Only a repeated recall answered "not held" proves the grant was lost
  /// and the registration is a phantom worth dropping.
  std::unordered_map<ObjectId, std::unordered_map<ClientId, std::uint32_t>>
      recall_tries_;

  // --- crash/recovery state (quiescent on fault-free runs) ----------------

  /// Recovery epoch: bumped on every restart/failover; stamped into grants
  /// and recalls so clients can reject messages from dead incarnations.
  std::uint32_t epoch_ = 1;

  /// Incarnation guard for async continuations (CPU slices, disk reads,
  /// watchdog timers) armed before a crash: they capture the value and
  /// bail out if the server died in between.
  std::uint64_t incarnation_ = 0;

  /// Grace-window state: while in_grace_, request batches park here (FIFO)
  /// and are served at the window's end, after re-assertions rebuilt the
  /// lock table.
  bool in_grace_ = false;
  std::vector<ObjectRequestBatch> grace_parked_;

  /// The lock table as the warm standby holds it: saved at a crash while
  /// the plan arms a standby, replayed at promotion.
  lock::GlobalLockTable::Snapshot standby_;

  /// True when the fault plan arms a warm standby.
  [[nodiscard]] bool standby_armed() const;

  [[nodiscard]] std::uint64_t version_of(ObjectId obj) const {
    return versions_.value_or_default(obj);
  }
};

}  // namespace rtdb::core
