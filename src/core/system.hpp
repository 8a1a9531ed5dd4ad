#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_set>

#include "core/auditor.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "fault/fault.hpp"
#include "net/network.hpp"
#include "obs/telemetry.hpp"
#include "sim/simulator.hpp"
#include "txn/transaction.hpp"
#include "workload/generator.hpp"

/// \file system.hpp
/// Common scaffolding shared by the four prototypes: the simulator, the
/// LAN, the workload sources, arrival scheduling, the warm-up / measurement
/// / drain phases, the warm start, and transaction outcome accounting.

namespace rtdb::core {

/// Span outcome of a terminal transaction state.
constexpr obs::Outcome outcome_of(txn::TxnState s) {
  assert(!txn::is_live(s));
  return s == txn::TxnState::kCommitted ? obs::Outcome::kCommitted
         : s == txn::TxnState::kMissed  ? obs::Outcome::kMissed
                                        : obs::Outcome::kAborted;
}

/// Typed event announcing a terminal transaction state.
constexpr obs::EventKind event_of(txn::TxnState s) {
  assert(!txn::is_live(s));
  return s == txn::TxnState::kCommitted ? obs::EventKind::kTxnCommit
         : s == txn::TxnState::kMissed  ? obs::EventKind::kTxnMiss
                                        : obs::EventKind::kTxnAbort;
}

/// Base of CE-RTDBS / CS-RTDBS / LS-CS-RTDBS / OCC-CS-RTDBS runs.
///
/// Lifecycle: construct -> run() -> read metrics. One System instance
/// performs exactly one run.
class System {
 public:
  explicit System(SystemConfig config);
  virtual ~System() = default;

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Executes the whole experiment and returns the measurement-phase
  /// metrics. Call once.
  RunMetrics run();

  [[nodiscard]] const SystemConfig& config() const { return config_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] net::Network& network() { return net_; }

  /// End-to-end consistency ledger (lost updates / stale reads / divergent
  /// copies). Populated throughout the run; tests assert it stays clean.
  [[nodiscard]] ConsistencyAuditor& auditor() { return auditor_; }
  [[nodiscard]] const ConsistencyAuditor& auditor() const { return auditor_; }

  /// Telemetry layer: lifecycle spans, typed events, gauge series, miss
  /// attribution (configured via config.telemetry; one branch per call
  /// site when disabled).
  [[nodiscard]] obs::Telemetry& telemetry() { return tel_; }
  [[nodiscard]] const obs::Telemetry& telemetry() const { return tel_; }

  /// True when a non-empty FaultPlan is installed. Every recovery code
  /// path (retransmission timers, watchdogs, reclamation, acks) is gated
  /// on this so fault-free runs stay byte-identical to the golden digests.
  [[nodiscard]] bool faults_active() const { return injector_ != nullptr; }

  /// The run's fault injector (nullptr on fault-free runs).
  [[nodiscard]] fault::FaultInjector* injector() { return injector_.get(); }
  [[nodiscard]] const fault::FaultInjector* injector() const {
    return injector_.get();
  }

 protected:
  /// Subclass hook: wire up nodes before arrivals start.
  virtual void start() = 0;

  /// Deliver one freshly generated transaction to the subclass.
  virtual void on_arrival(std::size_t client_index, txn::Transaction txn) = 0;

  /// Called at the warm-up/measurement boundary: reset subsystem stats
  /// (caches, disks, CPU windows). Base resets network + outcome counters.
  virtual void on_measurement_start();

  /// Called once after the drain: fill subsystem utilizations / Table 2-4
  /// aggregates into `m`.
  virtual void finalize(RunMetrics& m) = 0;

  /// Subclass hook for the periodic invariant audit: validate every owned
  /// structure (lock tables, queues, caches) with their
  /// validate_invariants() methods. Runs only between simulator events.
  virtual void audit_structures() const {}

  /// Subclass hook for the telemetry gauge sampler: record queue depths,
  /// cache occupancy and utilizations via telemetry().sample(name, value).
  /// Like audit_structures(), the probe is strictly read-only with respect
  /// to simulation behaviour — it must not schedule events or mutate any
  /// scheduling state.
  virtual void sample_gauges() {}

  /// Fault-schedule hooks (fired only while a plan is active). A crash
  /// wipes the site's volatile state; recovery rejoins it cold; the
  /// declared-dead hook fires detection_delay after a crash that outlasts
  /// it, letting the server reclaim orphaned locks and queue entries.
  virtual void on_site_crash(std::size_t client_index) {
    (void)client_index;
  }
  virtual void on_site_recover(std::size_t client_index) {
    (void)client_index;
  }
  virtual void on_site_declared_dead(std::size_t client_index) {
    (void)client_index;
  }

  /// Server-outage hooks (fired only when the plan allows server crashes).
  /// A crash wipes the server's volatile state (lock table, forward lists,
  /// queued transactions); the restart either promotes the warm standby
  /// (`failover == true`) or starts the epoch-leased grace rebuild.
  virtual void on_server_crash() {}
  virtual void on_server_restart(bool failover) { (void)failover; }

  /// True if the transaction arrived inside the measurement window and its
  /// outcome must be counted.
  [[nodiscard]] bool is_measured(const txn::Transaction& t) const {
    return t.arrival >= config_.measure_start() &&
           t.arrival < config_.measure_end();
  }

  /// Warm start (config.warm_start): `cache_copy(i, obj)` for every object
  /// of client i's region, capped at its memory + disk cache capacity
  /// (clients in index order, objects ascending), then `preload(obj)` for
  /// each object the server buffer starts with. No-op on a cold start.
  void warm_start(const std::function<void(std::size_t, ObjectId)>& cache_copy,
                  const std::function<void(ObjectId)>& preload) const;

  // Outcome accounting. Exactly one outcome per measured transaction is
  // enforced: a second record trips `double_records()` (asserted zero by
  // the property tests) and is dropped.
  void record_generated(const txn::Transaction& t);
  /// Records the terminal state `outcome` of `t` at the current instant:
  /// closes its span and, when measured, counts it (a commit also feeds
  /// the response-time and slack series; a miss or abort the attribution
  /// table).
  void record(const txn::Transaction& t, txn::TxnState outcome);
  /// Sets `t.state` to `outcome`, emits its typed event at `site`, then
  /// records it.
  void resolve(txn::Transaction& t, txn::TxnState outcome, SiteId site);

 public:
  /// Measured transactions that had a second outcome recorded (bug if >0).
  [[nodiscard]] std::uint64_t double_records() const {
    return double_records_;
  }

  /// Arms the periodic structure audit per config.audit_interval /
  /// RTDB_AUDIT_INTERVAL (see config.hpp). run() calls this automatically;
  /// bootstrap()-style manual drivers may call it themselves.
  void arm_structure_audit();

  /// Arms the fixed-interval gauge sampler when
  /// config.telemetry.sample_interval > 0. run() calls this automatically.
  void arm_sampler();

 protected:

  /// Next cluster-unique transaction id.
  TxnId next_txn_id() { return next_txn_id_++; }

  SystemConfig config_;
  sim::Simulator sim_;
  net::Network net_;
  workload::WorkloadSuite suite_;
  RunMetrics metrics_;
  ConsistencyAuditor auditor_;
  obs::Telemetry tel_;

 private:
  void schedule_next_arrival(std::size_t client_index);
  void schedule_sample(sim::SimTime when);
  void arm_fault_schedule();

  /// Returns false (and counts) when the transaction already has an
  /// outcome; callers must then drop the duplicate record.
  bool first_outcome(const txn::Transaction& t);

  TxnId next_txn_id_{1};
  std::unordered_set<TxnId> resolved_;
  std::uint64_t double_records_ = 0;
  std::unique_ptr<fault::FaultInjector> injector_;
};

}  // namespace rtdb::core
