#pragma once

#include <memory>
#include <unordered_map>

#include "common/dense_map.hpp"
#include "core/local_exec.hpp"
#include "core/system.hpp"
#include "lock/local_lock_manager.hpp"
#include "sim/resource.hpp"
#include "storage/paged_file.hpp"
#include "txn/edf_queue.hpp"

/// \file centralized.hpp
/// CE-RTDBS: "the database server performs all the transaction processing.
/// Clients are assumed to be simple terminals ... transactions are initiated
/// at the clients and are forwarded to the server for execution. Once they
/// arrive at the server, the real-time scheduler assigns priorities to them
/// and executes them in that order" under a single global ED schedule, with
/// up to 100 concurrent executor threads (paper §5.1).

namespace rtdb::core {

/// The centralized prototype.
class CentralizedSystem final : public System {
 public:
  explicit CentralizedSystem(SystemConfig config);

  /// Diagnostics for tests.
  [[nodiscard]] const lock::LocalLockManager& lock_manager() const {
    return locks_;
  }
  [[nodiscard]] const storage::PagedFile& paged_file() const { return *pf_; }

 protected:
  void start() override {}
  void on_arrival(std::size_t client_index, txn::Transaction txn) override;
  void on_measurement_start() override;
  void finalize(RunMetrics& m) override;
  void audit_structures() const override;
  void sample_gauges() override;

  /// Server crash: the admission queue, the lock table, the ready queue and
  /// every in-flight transaction are volatile — all of it dies (recorded as
  /// misses). The buffer pool and the version array survive (stable
  /// storage), matching the CS/LS server.
  void on_server_crash() override;

 private:
  struct Live : LocalTxn {
    sim::EventId deadline_timer = sim::kNoEvent;
  };

  /// Terminal-side submit with outage awareness: while the server is down
  /// the submit is held back (jittered past the projected restart) or — when
  /// the outage alone outlasts the deadline — accounted as a miss at the
  /// terminal without ever hitting the wire. `retry` travels with the held
  /// submit and numbers its deferrals.
  void submit_to_server(txn::Transaction txn, fault::RetryLoop retry);

  /// Transaction admitted at the server (after the submit message and the
  /// serial per-transaction overhead).
  void admit(txn::Transaction txn);

  /// The serial admission path (per-transaction overhead) runs in ED order
  /// and sheds transactions whose deadline already passed — the paper's
  /// global ED schedule covers everything the server does, so overload
  /// degrades gracefully instead of head-of-line-blocking to zero.
  void pump_admission();
  void handle_deadline(TxnId id);
  void destroy(TxnId id);

  // LocalExecutor hooks (see local_exec.hpp).
  friend class LocalExecutor<CentralizedSystem>;
  Live* find(TxnId id) { return find_live(live_, id); }
  /// Execution over: commit, free the slot and answer the terminal.
  void on_executed(Live& live);
  /// All locks held: fault in the pages.
  void on_locks_held(Live& live);
  void count_refusal() { ++metrics_.deadlock_refusals; }
  void reset_attempt(Live& live) { locks_.release_all(live.t.id); }
  void abort_victim(Live& live);

  /// The server's executor pool (ce_executor_slots) over locks_.
  LocalExecutor<CentralizedSystem> exec_;
  std::unique_ptr<storage::PagedFile> pf_;
  lock::LocalLockManager locks_;
  sim::SerialResource overhead_cpu_;
  txn::EdfQueue<txn::Transaction> admission_;
  bool admission_busy_ = false;
  /// Observed mean execution time of committed transactions — the same
  /// "observed transaction times" heuristic the clients use for H1, here
  /// driving admission feasibility shedding.
  sim::MeanAccumulator observed_length_;
  std::unordered_map<TxnId, std::unique_ptr<Live>> live_;
  /// Server incarnation guard: the serial admission overhead captures the
  /// value and, when the server crashed underneath it, accounts the miss
  /// instead of admitting a transaction the crash already killed.
  std::uint64_t server_inc_ = 0;
  /// Object versions (all server-side here); feeds the consistency auditor.
  common::DenseArray<ObjectId, std::uint64_t> versions_;
};

}  // namespace rtdb::core
