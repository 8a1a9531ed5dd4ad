#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/dense_map.hpp"
#include "core/local_exec.hpp"
#include "core/system.hpp"
#include "sim/resource.hpp"
#include "storage/client_cache.hpp"
#include "storage/paged_file.hpp"

/// \file optimistic.hpp
/// OCC-CS-RTDBS — the paper's stated future work ("we intend to study the
/// use of optimistic concurrency control ... techniques to evaluate their
/// impact on real-time system performance", §7, after Thomasian [24]).
///
/// Clients execute transactions against cached copies without taking any
/// locks: missing objects are fetched as plain copies, execution proceeds
/// immediately, and a commit-time *backward validation* at the server
/// checks that every version read is still current. Valid transactions
/// install their writes atomically; invalidated ones restart with fresh
/// copies (piggybacked on the reject) until the deadline gives out.
///
/// Compared with the callback-locking CS-RTDBS this trades blocking for
/// wasted work: no lock waits, no recalls, but contended objects cause
/// rejection/restart storms — the classic OCC trade-off the paper wanted
/// quantified in a real-time setting (see bench/ext_occ_comparison).

namespace rtdb::core {

/// The optimistic client-server prototype (options in config.occ).
class OptimisticSystem final : public System {
 public:
  explicit OptimisticSystem(SystemConfig config);

  /// Manual driving (scenario tests): wire up the clients without run(),
  /// then hand a transaction to a client as its terminal would.
  void bootstrap() {
    if (clients_.empty()) start();
  }
  void submit(std::size_t client_index, txn::Transaction txn) {
    record_generated(txn);
    on_arrival(client_index, std::move(txn));
  }

  /// Validation counters (also mirrored into RunMetrics).
  [[nodiscard]] std::uint64_t validations() const { return validations_; }
  [[nodiscard]] std::uint64_t rejections() const { return rejections_; }

 protected:
  void start() override;
  void on_arrival(std::size_t client_index, txn::Transaction txn) override;
  void on_measurement_start() override;
  void finalize(RunMetrics& m) override;
  void audit_structures() const override;
  void sample_gauges() override;

  /// Fault-plan hooks: a crash wipes the workstation's caches, versions and
  /// every live transaction it hosted (OCC copies are never dirty, so no
  /// committed version is lost). Recovery rejoins it cold; there is no
  /// server-side client state to reclaim beyond the verdict cache.
  void on_site_crash(std::size_t client_index) override;

  /// Server crash: the OCC server keeps almost nothing volatile — committed
  /// versions and the paged file are stable — but the verdict cache dies
  /// (a retransmitted validate after the crash is re-validated from
  /// scratch) and every in-flight server continuation is neutralized by
  /// the incarnation guard.
  void on_server_crash() override;

 private:
  /// Per-workstation execution state (no lock manager — that is the point).
  struct ClientState {
    ClientState(OptimisticSystem& sys, SiteId site)
        : cache(sys.sim_, sys.config_.client_cache),
          exec(sys, sys.sim_, sys.tel_, site,
               sys.config_.client_executor_slots) {}
    storage::ClientCache cache;
    LocalExecutor<OptimisticSystem> exec;
  };

  /// A transaction somewhere in the fetch -> execute -> validate loop.
  /// `needs` are the objects every attempt fetches, snapshots and
  /// (exclusive ones) writes back; `restarts` count validation rejections.
  struct Live : LocalTxn {
    std::size_t client_index = 0;
    std::size_t fetches_pending = 0;
    bool cache_io_pending = false;  ///< the local phase's join is due
    /// (object, version) pairs the execution read (write set included:
    /// OCC validates the read base of every update).
    std::vector<std::pair<ObjectId, std::uint64_t>> read_set;
    sim::EventId deadline_timer = sim::kNoEvent;
    /// Bounded retransmission of the validate request (faults only): a lost
    /// request or verdict would otherwise strand the commit point. The
    /// fetch deferrals share the loop's jitter sequence.
    fault::RetryLoop retry;
    sim::EventId val_timer = sim::kNoEvent;
  };

  void begin_attempt(TxnId id);
  void on_all_fetched(TxnId id);
  void validate(TxnId id);
  /// Ships the validate request for the current attempt and (faults only)
  /// arms the bounded retransmission timer.
  void send_validate(Live& live);
  void arm_validate_retry(Live& live, sim::Duration delay);
  /// Validate-retransmit timer body: defers (budget-free, jittered) while
  /// the server is down, retransmits within budget otherwise.
  void validate_retry_fired(TxnId id, std::uint32_t epoch);
  /// Server-side backward validation; runs after the request message and
  /// the server CPU slice. Idempotent per (txn, epoch) while faults are
  /// active: a retransmitted request re-sends the accept verdict without
  /// re-applying the writes.
  void server_validate(TxnId id, std::uint32_t epoch, SiteId client,
                       std::vector<std::pair<ObjectId, std::uint64_t>> reads,
                       std::vector<ObjectId> writes, sim::SimTime deadline);
  void on_verdict(TxnId id, bool accepted,
                  std::vector<std::pair<ObjectId, std::uint64_t>> fresh);
  void handle_deadline(TxnId id);
  void finish(TxnId id, txn::TxnState final_state);

  // LocalExecutor hooks (see local_exec.hpp).
  friend class LocalExecutor<OptimisticSystem>;
  Live* find(TxnId id) { return find_live(live_, id); }
  /// Execution over: free the slot and go validate.
  void on_executed(Live& live);

  ClientState& state_of(const Live& live) { return *clients_[live.client_index]; }

  OccOptions occ_;
  std::unique_ptr<storage::PagedFile> pf_;      // server paged file
  std::unique_ptr<sim::SerialResource> server_cpu_;
  common::DenseArray<ObjectId, std::uint64_t> committed_;  // server versions
  std::vector<std::unique_ptr<ClientState>> clients_;
  std::unordered_map<TxnId, std::unique_ptr<Live>> live_;
  /// Accepted validations by attempt (faults only): the duplicate-
  /// suppression key for retransmitted validate requests.
  std::unordered_map<TxnId, std::uint32_t> validated_ok_;
  std::uint64_t validations_ = 0;
  std::uint64_t rejections_ = 0;
  /// Server incarnation guard: continuations queued on the server (CPU
  /// slices, page reads) capture the value and bail when the server
  /// crashed underneath them.
  std::uint64_t server_inc_ = 0;
};

}  // namespace rtdb::core
