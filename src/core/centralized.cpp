#include "core/centralized.hpp"

#include <algorithm>

#include "obs/telemetry.hpp"

namespace rtdb::core {

CentralizedSystem::CentralizedSystem(SystemConfig config)
    : System(std::move(config)),
      exec_(*this, sim_, tel_, kServerSite, config_.ce_executor_slots, &locks_,
            RestartRule{config_.deadlock_retries, config_.deadlock_backoff}),
      overhead_cpu_(sim_) {
  storage::PagedFileConfig pfc;
  pfc.buffer_capacity = config_.ce_buffer_capacity;
  pfc.memory_access_time = config_.server_memory_access;
  pfc.disk = config_.server_disk;
  pf_ = std::make_unique<storage::PagedFile>(sim_, pfc);
}

void CentralizedSystem::on_arrival(std::size_t, txn::Transaction txn) {
  submit_to_server(std::move(txn), {});
}

void CentralizedSystem::submit_to_server(txn::Transaction txn,
                                         fault::RetryLoop retry) {
  const sim::SimTime now = sim_.now();
  if (faults_active() && injector()->server_down(now)) {
    if (fault::outage_dooms(*injector(), now, txn.deadline,
                            config_.ce_txn_overhead)) {
      // The outage alone outlasts the deadline: account the miss at the
      // terminal instead of shipping a transaction that cannot finish.
      resolve(txn, txn::TxnState::kMissed, txn.origin);
      return;
    }
    // Hold the submit at the terminal until the server is back — jittered,
    // so the parked backlog does not arrive as one synchronized spike.
    const sim::Duration delay = retry.defer(
        *injector(), now,
        fault::retry_salt(txn.origin.value(), txn.id.value(),
                          fault::RetryTag::kSubmit),
        injector()->plan().request_timeout);
    sim_.after(delay, [this, retry, txn = std::move(txn)]() mutable {
      submit_to_server(std::move(txn), retry);
    });
    return;
  }
  // Terminal -> server: the transaction travels as a message; execution is
  // entirely server-side.
  const ClientId origin = client_of(txn.origin);
  const sim::SimTime sent = now;
  net_.send<net::MessageKind::kTxnSubmit>(
      origin, net::kServer, [this, sent, txn = std::move(txn)]() mutable {
              if (tel_.spans_enabled()) {
                // Submit-message flight time, then the admission-queue
                // episode (closed at admit() or by txn_end on a shed).
                tel_.add_wait(txn.id, obs::WaitBucket::kNet,
                              sim_.now() - sent);
                tel_.txn_ready(txn.id, sim_.now());
              }
              const sim::SimTime deadline = txn.deadline;
              admission_.push(std::move(txn), deadline);
              pump_admission();
            });
}

void CentralizedSystem::pump_admission() {
  if (admission_busy_) return;
  // Feasibility shedding under backlog: spending the serial overhead on a
  // transaction that cannot finish by its deadline anyway only delays
  // feasible ones (the EDF-overload domino). The execution estimate uses
  // observed times, mirroring the paper's "observed transaction times"
  // heuristic; with no backlog every transaction is admitted — estimates
  // must not kill short transactions on an idle server.
  const bool backlogged = admission_.size() >= 4;
  // Floor the estimate at the long-run mean: under overload only short
  // transactions survive to be observed, and a survivor-biased estimate
  // would re-admit doomed work.
  const sim::Duration est_exec = std::max(
      sim::seconds(observed_length_.count() ? observed_length_.mean() : 0.0),
      config_.workload.mean_length);
  const sim::Duration required =
      config_.ce_txn_overhead +
      (backlogged ? est_exec : sim::Duration::zero());
  std::vector<txn::Transaction> expired;
  std::optional<txn::Transaction> next;
  for (;;) {
    next = admission_.pop_ready(sim_.now(), &expired);
    if (!next || next->deadline >= sim_.now() + required) break;
    expired.push_back(std::move(*next));
  }
  for (auto& t : expired) resolve(t, txn::TxnState::kMissed, kServerSite);
  if (!next) return;
  admission_busy_ = true;
  // Serial per-transaction server overhead (thread dispatch, parsing,
  // logging) precedes scheduling.
  overhead_cpu_.submit(
      config_.ce_txn_overhead,
      [this, inc = server_inc_, txn = std::move(*next)]() mutable {
        if (inc != server_inc_) {
          // The server crashed while this admission sat on the serial CPU:
          // the transaction died with it. Do not touch admission_busy_ —
          // the crash reset it, and the restarted incarnation may already
          // own it again.
          resolve(txn, txn::TxnState::kMissed, kServerSite);
          return;
        }
        admission_busy_ = false;
        admit(std::move(txn));
        pump_admission();
      });
}

void CentralizedSystem::admit(txn::Transaction txn) {
  const TxnId id = txn.id;
  // Close the admission-queue episode (includes the serial overhead that
  // just ran on this transaction's behalf).
  if (tel_.spans_enabled()) tel_.txn_dequeued(id, sim_.now());
  auto live = std::make_unique<Live>();
  live->t = std::move(txn);
  live->t.state = txn::TxnState::kAcquiring;
  live->needs = live->t.lock_needs();
  Live& ref = *live;
  live_.emplace(id, std::move(live));

  // Missed already (server overload can delay admission past the deadline)?
  if (ref.t.missed(sim_.now())) {
    resolve(ref.t, txn::TxnState::kMissed, kServerSite);
    destroy(id);
    return;
  }
  ref.deadline_timer =
      sim_.at(ref.t.deadline, [this, id] { handle_deadline(id); });
  exec_.acquire_locks(id);
}

void CentralizedSystem::abort_victim(Live& live) {
  resolve(live.t, txn::TxnState::kAborted, kServerSite);
  locks_.release_all(live.t.id);
  sim_.cancel(live.deadline_timer);
  destroy(live.t.id);
}

void CentralizedSystem::on_locks_held(Live& live) {
  // Fault in the pages (buffer hits are near-free, misses queue on the
  // server disk); one join fires when the last page is in.
  if (live.needs.empty()) return exec_.make_ready(live.t);
  const TxnId id = live.t.id;
  const sim::SimTime io_start = sim_.now();
  sim::SimTime io_done = io_start;
  for (const auto& [obj, mode] : live.needs) {
    io_done = std::max(io_done,
                       pf_->access(obj, mode == lock::LockMode::kExclusive));
  }
  sim_.at(io_done, [this, id, io_start] {
    Live* l = find(id);
    if (!l || !txn::is_live(l->t.state)) return;
    // Wall time of the whole I/O phase (the accesses overlap, so summing
    // per-page times would inflate).
    if (tel_.spans_enabled()) {
      tel_.add_wait(id, obs::WaitBucket::kDisk, sim_.now() - io_start);
    }
    exec_.make_ready(l->t);
  });
}

void CentralizedSystem::on_executed(Live& live) {
  const TxnId id = live.t.id;
  sim_.cancel(live.deadline_timer);
  resolve(live.t, txn::TxnState::kCommitted, kServerSite);
  observed_length_.add(live.t.length.sec());
  // Version bookkeeping for the consistency audit (single-site locking
  // makes this trivially serial, which is exactly what the audit confirms).
  for (const auto& [obj, mode] : live.needs) {
    if (mode == lock::LockMode::kExclusive) {
      auditor().on_write_commit(obj, kServerSite, ++versions_.slot(obj),
                                sim_.now());
    } else {
      auditor().on_read_commit(obj, kServerSite,
                               versions_.value_or_default(obj),
                               sim_.now());
    }
  }
  locks_.release_all(id);
  exec_.release();
  // Results go back to the terminal (timing only; the outcome is already
  // accounted server-side).
  net_.send<net::MessageKind::kTxnResult>(net::kServer,
                                          client_of(live.t.origin), [] {});
  destroy(id);
  exec_.pump();
}

void CentralizedSystem::handle_deadline(TxnId id) {
  Live* live = find(id);
  if (!live || !txn::is_live(live->t.state)) return;
  const bool was_executing = live->t.state == txn::TxnState::kExecuting;
  resolve(live->t, txn::TxnState::kMissed, kServerSite);
  locks_.release_all(id);  // releases holds and cancels queued waits
  if (was_executing) exec_.release();
  destroy(id);
  exec_.pump();
}

void CentralizedSystem::destroy(TxnId id) { live_.erase(id); }

void CentralizedSystem::on_server_crash() {
  ++server_inc_;
  admission_busy_ = false;
  // The admission queue lived in server memory: every parked transaction
  // dies here and is accounted immediately.
  while (auto t = admission_.pop()) {
    resolve(*t, txn::TxnState::kMissed, kServerSite);
  }
  // Every in-flight transaction dies with the server. Sweep in sorted id
  // order so the miss records (and their telemetry events) are independent
  // of hash-map iteration order.
  const std::vector<TxnId> ids = sorted_keys(live_);
  for (TxnId id : ids) {
    Live* l = find(id);
    sim_.cancel(l->deadline_timer);
    if (txn::is_live(l->t.state)) {
      resolve(l->t, txn::TxnState::kMissed, kServerSite);
    }
  }
  for (TxnId id : ids) live_.erase(id);
  // Release the lock table only after the records are gone: a waiter's
  // grant callback fires into the find() guard instead of resurrecting a
  // transaction the crash already killed.
  for (TxnId id : ids) locks_.release_all(id);
  exec_.clear();
  // The buffer pool (pf_) and versions_ survive: stable storage. Stale
  // continuations — lock grants, disk completions, execution timers, the
  // admission overhead — all bail on find()/server_inc_ guards.
}

void CentralizedSystem::on_measurement_start() {
  System::on_measurement_start();
  pf_->reset_stats();
  overhead_cpu_.reset_stats();
}

void CentralizedSystem::sample_gauges() {
  tel_.sample("ce.admission_depth", static_cast<double>(admission_.size()));
  tel_.sample("ce.ready_depth", static_cast<double>(exec_.queued()));
  tel_.sample("ce.live_txns", static_cast<double>(live_.size()));
  tel_.sample("ce.busy_slots", static_cast<double>(exec_.busy()));
  tel_.sample("server.cpu_util", overhead_cpu_.utilization());
  tel_.sample("server.disk_util", pf_->disk().utilization());
  tel_.sample("net.util", net_.utilization());
}

void CentralizedSystem::audit_structures() const {
  sim_.validate_invariants();
  locks_.validate_invariants();
  admission_.validate_invariants();
  exec_.validate_invariants();
  pf_->buffer().validate_invariants();
}

void CentralizedSystem::finalize(RunMetrics& m) {
  m.server_cpu_utilization = overhead_cpu_.utilization();
  m.server_disk_utilization = pf_->disk().utilization();
  // m.deadlock_refusals accumulated incrementally (measurement phase only).
  // The centralized model has no client caches; Table 2/3 fields stay 0.
}

}  // namespace rtdb::core
