#pragma once

#include <cstdint>
#include <vector>

#include "common/ids.hpp"
#include "lock/forward_list.hpp"
#include "lock/modes.hpp"
#include "sim/time.hpp"
#include "txn/transaction.hpp"

/// \file protocol.hpp
/// Typed payloads of the client-server protocols. In the real prototypes
/// these travelled as byte frames over TCP; here they are structs captured
/// by the network-delivery lambdas — the Network model charges the wire
/// time, these define the semantics.

namespace rtdb::core {

/// One object a transaction needs from the server.
struct ObjectNeed {
  ObjectId object{};
  lock::LockMode mode = lock::LockMode::kShared;
  /// The client already caches the object's data (lock upgrade / re-grant):
  /// the server can answer with a lock-only grant, no 2 KB payload.
  bool have_copy = false;
};

/// Client load information, piggybacked on every client->server message
/// ("information about the current processing load at clients can be
/// conveyed to the server piggybacked on object requests and releases").
struct LoadInfo {
  std::size_t live_txns = 0;  ///< transactions in any live state at the site
  double atl = 0;             ///< observed average transaction latency (H1)
};

/// A transaction's batched object/lock request. Counted on the wire as one
/// message per need (the paper's per-object "Object Request Messages").
struct ObjectRequestBatch {
  TxnId txn = kInvalidTxn;
  ClientId client = kInvalidClient;
  sim::SimTime deadline = sim::kTimeInfinity;
  std::vector<ObjectNeed> needs;
  /// Skip the LS location-reply detour: queue + recall on conflict (always
  /// set in the basic CS system and for already-shipped transactions).
  bool auto_proceed = true;
  /// Fault recovery: this batch re-sends needs whose answers never arrived.
  /// The server answers idempotently (re-grant covered needs, skip already
  /// queued ones) instead of double-queueing.
  bool retransmit = false;
  LoadInfo load;
};

/// Server -> client (or client -> client on a forward hop): one object/lock
/// grant.
struct Grant {
  TxnId txn = kInvalidTxn;      ///< the request being answered
  ObjectId object{};
  lock::LockMode mode = lock::LockMode::kNone;
  bool with_data = true;        ///< false = lock-only (client has a copy)
  /// Lock-grouping shipment: the object is only on loan — serve the bound
  /// transaction, then forward along `forward_list` (or return to the
  /// server when it is empty).
  bool circulating = false;
  /// The travelling copy differs from the server's (some hop updated it);
  /// the eventual return must write it back even if later hops only read.
  bool dirty = false;
  /// Version of the carried data (consistency auditing; see auditor.hpp).
  std::uint64_t version = 0;
  /// Server recovery epoch the grant was issued under. A grant stamped with
  /// an older epoch was in flight across a server crash: the receiving
  /// client discards it (losslessly — the server still has its copy) and
  /// lets the request retransmission path re-ask the restarted server.
  /// 0 on fault-free runs (epoch checks are chaos-only).
  std::uint32_t epoch = 0;
  std::vector<lock::ForwardEntry> forward_list;
};

/// Server -> client: H2 material for one conflicted request (LS only).
struct LocationReply {
  TxnId txn = kInvalidTxn;

  /// Objects the server could not grant, with their current location.
  struct Conflict {
    ObjectId object{};
    SiteId location = kInvalidSite;
  };
  std::vector<Conflict> conflicts;

  /// Candidate execution sites with the paper's H2 cost (number of the
  /// transaction's objects that would wait on conflicting locks there), a
  /// data-availability score (how many of the transaction's objects the
  /// site already holds locks on — the paper's transaction-shipping
  /// criterion (i)), and the server's load table entry.
  struct Candidate {
    ClientId client = kInvalidClient;
    std::size_t conflict_count = 0;
    std::size_t objects_held = 0;
    std::size_t live_txns = 0;
    double atl = 0;
  };
  std::vector<Candidate> candidates;
};

/// Client -> server: decision on a parked (conflicted) request batch —
/// either "proceed: queue me and call the holders back" or "withdraw: the
/// transaction ships elsewhere / died".
struct ProceedDecision {
  TxnId txn = kInvalidTxn;
  ClientId client = kInvalidClient;
  bool proceed = true;
  LoadInfo load;
};

/// Server -> client: callback ("please give up / downgrade this lock").
struct Recall {
  ObjectId object{};
  /// Mode the other client wants: kShared lets an EL holder downgrade and
  /// keep a SL + copy; kExclusive demands full release.
  lock::LockMode wanted = lock::LockMode::kExclusive;
  /// Issuing server epoch; a recall from a dead incarnation is rejected
  /// (the restarted server re-derives its recalls from re-assertions).
  std::uint32_t epoch = 0;
};

/// Client -> server: object/lock returned (recall response, voluntary
/// eviction return, or end-of-forward-list return).
struct ObjectReturn {
  ClientId client = kInvalidClient;
  ObjectId object{};
  bool dirty = false;        ///< carries an updated copy
  bool downgraded = false;   ///< kept a SL (answered a kShared recall)
  bool was_held = true;      ///< false: lock already gone (benign race)
  bool from_circulation = false;  ///< end of a forward list
  /// Version of the returned copy (consistency auditing).
  std::uint64_t version = 0;
  LoadInfo load;
};

/// Client -> client: a whole transaction shipped for execution (LS).
struct ShippedTxn {
  txn::Transaction t;
  ClientId origin = kInvalidClient;
};

/// Client -> client: one decomposed sub-task (LS).
struct ShippedSubtask {
  TxnId parent = kInvalidTxn;
  ClientId origin = kInvalidClient;
  txn::Transaction work;  ///< ops subset, proportional length, same deadline
};

/// Executing site -> origin: outcome of a shipped transaction or sub-task.
struct RemoteResult {
  TxnId id = kInvalidTxn;  ///< shipped txn id, or the sub-task's parent id
  bool success = false;
};

/// One surviving grant a client re-registers after a server restart.
struct ReassertEntry {
  ObjectId object{};
  lock::LockMode mode = lock::LockMode::kShared;
  bool dirty = false;          ///< the cached copy is newer than the server's
  std::uint64_t version = 0;   ///< version of the cached copy
};

/// Client -> server (kLockReassert): the client's full set of surviving
/// grants, re-asserted during the recovery grace window (or late, when a
/// stale in-flight forward handed it a copy after the window opened).
/// Retransmitted until acked; the server dedups on (client, epoch).
struct ReassertBatch {
  ClientId client = kInvalidClient;
  std::uint32_t epoch = 0;     ///< recovery epoch being joined
  std::vector<ReassertEntry> entries;
  bool retransmit = false;
  LoadInfo load;
};

/// Server -> client (kReassertAck): per-object verdicts. Rejected entries
/// (grace expired, or a conflicting holder re-asserted first) must be
/// released by the client; a rejected dirty copy is an accounted loss.
struct ReassertAck {
  std::uint32_t epoch = 0;
  std::vector<ObjectId> accepted;
  std::vector<ObjectId> rejected;
};

/// Client -> server: where are these objects, and who should run this
/// transaction (feeds H1-shipping and decomposition).
struct LocationQuery {
  TxnId txn = kInvalidTxn;
  ClientId client = kInvalidClient;
  sim::SimTime deadline = sim::kTimeInfinity;
  std::vector<ObjectNeed> needs;
  LoadInfo load;
};

}  // namespace rtdb::core
