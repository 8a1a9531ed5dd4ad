#include "core/optimistic.hpp"

#include <algorithm>
#include <cassert>

#include "obs/telemetry.hpp"

namespace rtdb::core {

OptimisticSystem::OptimisticSystem(SystemConfig config)
    : System(std::move(config)), occ_(config_.occ) {
  storage::PagedFileConfig pfc;
  pfc.buffer_capacity = config_.cs_server_buffer_capacity;
  pfc.memory_access_time = config_.server_memory_access;
  pfc.disk = config_.server_disk;
  pf_ = std::make_unique<storage::PagedFile>(sim_, pfc);
  server_cpu_ = std::make_unique<sim::SerialResource>(sim_);
}

void OptimisticSystem::start() {
  clients_.reserve(config_.num_clients);
  for (std::size_t i = 0; i < config_.num_clients; ++i) {
    clients_.push_back(std::make_unique<ClientState>(
        *this, site_of(ClientId{static_cast<ClientId::Rep>(i + 1)})));
  }
  // Steady-state start: regions cached (copies only — OCC has no locks).
  warm_start(
      [this](std::size_t i, ObjectId obj) {
        clients_[i]->cache.insert(obj, /*dirty=*/false);
      },
      [this](ObjectId obj) { pf_->preload(obj); });
}

void OptimisticSystem::on_arrival(std::size_t client_index,
                                  txn::Transaction txn) {
  const TxnId id = txn.id;
  auto live = std::make_unique<Live>();
  live->t = std::move(txn);
  live->needs = live->t.lock_needs();
  live->client_index = client_index;
  Live& ref = *live;
  live_.emplace(id, std::move(live));
  ref.deadline_timer =
      sim_.at(ref.t.deadline, [this, id] { handle_deadline(id); });
  begin_attempt(id);
}

void OptimisticSystem::begin_attempt(TxnId id) {
  Live* live = find(id);
  if (!live || !txn::is_live(live->t.state)) return;
  live->t.state = txn::TxnState::kAcquiring;  // here: fetching copies
  live->read_set.clear();
  live->fetches_pending = 0;
  live->cache_io_pending = false;
  ClientState& cs = state_of(*live);
  const ClientId site = client_of(live->t.origin);
  const std::uint32_t epoch = live->epoch;

  if (faults_active() && injector()->server_down(sim_.now())) {
    bool needs_server = false;
    for (const auto& [obj, mode] : live->needs) {
      (void)mode;
      if (!cs.cache.contains(obj)) {
        needs_server = true;
        break;
      }
    }
    if (needs_server) {
      // Fetches sent now are guaranteed drops (no fetch retransmit exists:
      // the attempt would strand until its deadline). Either the deadline
      // cannot survive the outage — account the miss now — or the attempt
      // is deferred, jittered, past the projected restart.
      const sim::Duration timeout = injector()->plan().request_timeout;
      if (fault::outage_dooms(*injector(), sim_.now(), live->t.deadline,
                              timeout)) {
        finish(id, txn::TxnState::kMissed);
        return;
      }
      sim_.after(live->retry.defer(*injector(), sim_.now(),
                                   fault::retry_salt(live->t.origin.value(),
                                                     id.value(),
                                                     fault::RetryTag::kFetch),
                                   timeout),
                 [this, id, epoch] {
                   Live* l = find(id);
                   if (!l || l->epoch != epoch ||
                       !txn::is_live(l->t.state)) {
                     return;
                   }
                   begin_attempt(id);
                 });
      return;
    }
  }

  const sim::SimTime io_start = sim_.now();
  std::optional<sim::SimTime> io_done;
  for (const auto& [obj, mode] : live->needs) {
    (void)mode;
    if (const auto local = cs.cache.access(obj, /*write=*/false)) {
      io_done = std::max(io_done.value_or(*local), *local);
      continue;
    }

    // Plain copy fetch: no lock semantics, no callbacks.
    ++live->fetches_pending;
    const sim::SimTime fetch_start = sim_.now();
    net_.send<net::MessageKind::kObjectRequest>(
        site, net::kServer, [this, id, obj, site, epoch, fetch_start] {
                // Delivery implies the server is up: pin its incarnation so
                // the CPU slice and page read below die with a crash.
                const std::uint64_t inc = server_inc_;
                server_cpu_->submit(config_.server_msg_overhead, [this, inc,
                                                                  id, obj,
                                                                  site, epoch,
                                                                  fetch_start] {
                  if (inc != server_inc_) return;
                  const sim::SimTime io_start = sim_.now();
                  pf_->access(obj, /*write=*/false, [this, inc, id, obj, site,
                                                     epoch, fetch_start,
                                                     io_start] {
                    if (inc != server_inc_) return;
                    const std::uint64_t v = [&] {
                      return committed_.value_or_default(obj);
                    }();
                    const sim::Duration disk_d = sim_.now() - io_start;
                    net_.send<net::MessageKind::kObjectShip>(
                        net::kServer, site,
                        [this, id, obj, v, epoch, fetch_start, disk_d] {
                                Live* l = find(id);
                                if (!l || l->epoch != epoch ||
                                    !txn::is_live(l->t.state)) {
                                  return;
                                }
                                if (tel_.spans_enabled()) {
                                  // Fetch round trip: the server's page
                                  // read is disk wait, the rest network.
                                  tel_.add_wait(id, obs::WaitBucket::kDisk,
                                                disk_d);
                                  tel_.add_wait(
                                      id, obs::WaitBucket::kNet,
                                      sim_.now() - fetch_start - disk_d);
                                }
                                ClientState& st = state_of(*l);
                                st.cache.insert(obj, /*dirty=*/false, v);
                                if (--l->fetches_pending == 0 &&
                                    !l->cache_io_pending) {
                                  on_all_fetched(id);
                                }
                              });
                  });
                });
              });
  }
  if (io_done) {
    live->cache_io_pending = true;  // one join for the whole local phase
    sim_.at(*io_done, [this, id, epoch, io_start] {
      Live* l = find(id);
      if (!l || l->epoch != epoch || !txn::is_live(l->t.state)) return;
      if (tel_.spans_enabled()) {
        // Wall time of the local phase, as CE charges its page faults.
        tel_.add_wait(id, obs::WaitBucket::kDisk, sim_.now() - io_start);
      }
      l->cache_io_pending = false;
      if (l->fetches_pending == 0) on_all_fetched(id);
    });
  } else if (live->fetches_pending == 0) {
    on_all_fetched(id);
  }
}

void OptimisticSystem::on_all_fetched(TxnId id) {
  Live* live = find(id);
  if (!live || !txn::is_live(live->t.state)) return;
  // Snapshot the versions the execution will read.
  ClientState& cs = state_of(*live);
  for (const auto& [obj, mode] : live->needs) {
    (void)mode;
    live->read_set.emplace_back(obj, cs.cache.version_of(obj));
  }
  cs.exec.make_ready(live->t);
}

void OptimisticSystem::on_executed(Live& live) {
  LocalExecutor<OptimisticSystem>& exec = state_of(live).exec;
  exec.release();
  exec.pump();
  validate(live.t.id);
}

void OptimisticSystem::validate(TxnId id) {
  Live* live = find(id);
  if (!live || !txn::is_live(live->t.state)) return;
  live->t.state = txn::TxnState::kAcquiring;  // awaiting the verdict
  live->retry.restart_budget();
  send_validate(*live);
}

void OptimisticSystem::send_validate(Live& live) {
  const TxnId id = live.t.id;
  std::vector<ObjectId> writes;
  for (const auto& [obj, mode] : live.needs) {
    if (mode == lock::LockMode::kExclusive) writes.push_back(obj);
  }
  // The request carries the read-set versions plus the updated objects.
  const std::uint64_t bytes =
      net_.config().control_bytes +
      static_cast<std::uint64_t>(writes.size()) * net_.config().object_bytes;
  const SiteId site = live.t.origin;
  net_.send<net::MessageKind::kValidateRequest>(
      client_of(site), net::kServer, bytes,
      [this, id, site, epoch = live.epoch, reads = live.read_set, writes,
       deadline = live.t.deadline]() mutable {
              const std::uint64_t inc = server_inc_;
              server_cpu_->submit(
                  config_.server_msg_overhead,
                  [this, inc, id, epoch, site, reads = std::move(reads),
                   writes = std::move(writes), deadline]() mutable {
                    if (inc != server_inc_) return;
                    server_validate(id, epoch, site, std::move(reads),
                                    std::move(writes), deadline);
                  });
            });
  if (!faults_active()) return;
  // A lost request or verdict must not strand the commit point until the
  // deadline: retransmit (bounded); the server answers idempotently.
  arm_validate_retry(live, injector()->plan().request_timeout);
}

void OptimisticSystem::arm_validate_retry(Live& live, sim::Duration delay) {
  sim_.cancel(live.val_timer);
  const TxnId id = live.t.id;
  const std::uint32_t epoch = live.epoch;
  live.val_timer = sim_.after(
      delay, [this, id, epoch] { validate_retry_fired(id, epoch); });
}

void OptimisticSystem::validate_retry_fired(TxnId id, std::uint32_t epoch) {
  Live* l = find(id);
  // Same epoch + still live means the verdict never arrived (an accept
  // erases the record, a reject bumps the epoch).
  if (!l || l->epoch != epoch || !txn::is_live(l->t.state)) return;
  // Retransmitting the commit point into a crashed server is a guaranteed
  // drop, so firings during an outage defer. A spent budget needs no
  // action: the deadline timer accounts the miss.
  if (!l->retry.fire(
          *injector(), sim_.now(),
          fault::retry_salt(l->t.origin.value(), id.value(),
                            fault::RetryTag::kValidate),
          injector()->plan().request_timeout,
          [&](sim::Duration delay) { arm_validate_retry(*l, delay); }, [] {})) {
    return;
  }
  ++injector()->stats().retransmits;
  if (tel_.events_enabled()) {
    tel_.event(obs::EventKind::kRetransmit, sim_.now(), l->t.origin, id);
  }
  send_validate(*l);
}

void OptimisticSystem::server_validate(
    TxnId id, std::uint32_t epoch, SiteId client,
    std::vector<std::pair<ObjectId, std::uint64_t>> reads,
    std::vector<ObjectId> writes, sim::SimTime deadline) {
  if (faults_active()) {
    // Retransmitted request for an attempt we already accepted: re-send the
    // verdict, never re-apply the writes (a double install would double-
    // commit the transaction's versions).
    const auto seen = validated_ok_.find(id);
    if (seen != validated_ok_.end() && seen->second == epoch) {
      ++injector()->stats().duplicate_validates_ignored;
      net_.send<net::MessageKind::kValidateReply>(
          net::kServer, client_of(client), net_.config().control_bytes,
          [this, id] { on_verdict(id, /*accepted=*/true, {}); });
      return;
    }
  }
  ++validations_;
  // Stale transactions are not worth validating (paper §3.3's rule applied
  // to the OCC commit point).
  const bool expired = sim_.now() > deadline;

  std::vector<std::pair<ObjectId, std::uint64_t>> stale;
  for (const auto& [obj, v] : reads) {
    const std::uint64_t current = committed_.value_or_default(obj);
    if (v != current) stale.emplace_back(obj, current);
  }

  const bool accepted = stale.empty() && !expired;
  if (tel_.events_enabled()) {
    tel_.event(obs::EventKind::kOccValidate, sim_.now(), kServerSite, id,
               ObjectId{}, client.value(), accepted ? 0 : 1);
  }
  if (accepted) {
    if (faults_active()) validated_ok_[id] = epoch;
    const sim::SimTime now = sim_.now();
    for (const ObjectId obj : writes) {
      pf_->install(obj, /*dirty=*/true);
      auditor().on_write_commit(obj, client, ++committed_.slot(obj), now);
    }
    for (const auto& [obj, v] : reads) {
      if (std::find(writes.begin(), writes.end(), obj) == writes.end()) {
        auditor().on_read_commit(obj, client, v, now);
      }
    }
  } else if (!expired) {
    ++rejections_;
  }

  // Verdict, plus fresh copies of whatever was stale so a restart does not
  // pay another fetch round trip for them.
  std::vector<std::pair<ObjectId, std::uint64_t>> fresh;
  std::uint64_t bytes = net_.config().control_bytes;
  if (!accepted) {
    fresh = stale;
    bytes += static_cast<std::uint64_t>(fresh.size()) *
             net_.config().object_bytes;
  }
  net_.send<net::MessageKind::kValidateReply>(
      net::kServer, client_of(client), bytes,
      [this, id, accepted, fresh = std::move(fresh)]() mutable {
        on_verdict(id, accepted, std::move(fresh));
      });
}

void OptimisticSystem::on_verdict(
    TxnId id, bool accepted,
    std::vector<std::pair<ObjectId, std::uint64_t>> fresh) {
  Live* live = find(id);
  if (!live || !txn::is_live(live->t.state)) return;
  if (accepted) {
    finish(id, txn::TxnState::kCommitted);
    return;
  }
  sim_.cancel(live->val_timer);
  live->val_timer = sim::kNoEvent;
  // Invalidated: refresh the stale copies and try again while the deadline
  // and the restart budget allow.
  ClientState& cs = state_of(*live);
  for (const auto& [obj, v] : fresh) {
    cs.cache.insert(obj, /*dirty=*/false, v);
  }
  ++live->restarts;
  ++live->epoch;
  if (tel_.spans_enabled()) tel_.txn_restart(id, sim_.now());
  if (tel_.events_enabled()) {
    tel_.event(obs::EventKind::kTxnRestart, sim_.now(), live->t.origin, id);
  }
  const std::uint32_t epoch = live->epoch;
  if (live->restarts > occ_.max_restarts ||
      sim_.now() + occ_.restart_backoff >= live->t.deadline) {
    finish(id, txn::TxnState::kAborted);
    return;
  }
  ++metrics_.deadlock_refusals;  // repurposed: counted as CC-induced restarts
  sim_.after(occ_.restart_backoff, [this, id, epoch] {
    Live* l = find(id);
    if (!l || l->epoch != epoch || !txn::is_live(l->t.state)) return;
    begin_attempt(id);
  });
}

void OptimisticSystem::handle_deadline(TxnId id) {
  Live* live = find(id);
  if (!live || !txn::is_live(live->t.state)) return;
  finish(id, txn::TxnState::kMissed);
}

void OptimisticSystem::finish(TxnId id, txn::TxnState final_state) {
  Live* live = find(id);
  assert(live);
  const bool was_executing = live->t.state == txn::TxnState::kExecuting;
  sim_.cancel(live->deadline_timer);
  sim_.cancel(live->val_timer);
  if (faults_active()) validated_ok_.erase(id);
  resolve(live->t, final_state, live->t.origin);
  LocalExecutor<OptimisticSystem>& exec = state_of(*live).exec;
  if (was_executing) exec.release();
  live_.erase(id);
  exec.pump();
}

void OptimisticSystem::on_site_crash(std::size_t client_index) {
  if (client_index >= clients_.size()) return;
  ClientState& cs = *clients_[client_index];
  // Every transaction hosted here dies with the workstation. Collect and
  // sort first: unordered_map iteration order must not leak into the
  // miss-record (and hence telemetry) order.
  const std::vector<TxnId> gone = sorted_keys(
      live_, [&](const auto& l) { return l->client_index == client_index; });
  for (const TxnId id : gone) {
    Live* l = find(id);
    sim_.cancel(l->deadline_timer);
    sim_.cancel(l->val_timer);
    resolve(l->t, txn::TxnState::kMissed, l->t.origin);
    validated_ok_.erase(id);
    live_.erase(id);
  }
  injector()->stats().crash_wiped_pages += cs.cache.size();
  // OCC caches hold plain copies (never dirty): wiping them loses no
  // committed version, only warmth.
  const auto dirty = cs.cache.clear();
  assert(dirty.empty());
  (void)dirty;
  cs.exec.clear();
}

void OptimisticSystem::on_server_crash() {
  ++server_inc_;
  // The verdict cache lived in server memory. A client whose accept verdict
  // was lost in the crash re-validates from scratch after the restart; its
  // installed writes are stable, so the retry sees its own updates as
  // conflicts and re-runs on fresh copies — the classic uncertain commit
  // window, resolved pessimistically.
  validated_ok_.clear();
  // Everything else the server owns is stable storage (committed_, pf_);
  // in-flight CPU slices and page reads bail on the incarnation guard, and
  // in-flight client requests are dropped at delivery by the injector.
}

void OptimisticSystem::on_measurement_start() {
  System::on_measurement_start();
  pf_->reset_stats();
  server_cpu_->reset_stats();
  for (auto& c : clients_) c->cache.reset_stats();
  validations_ = 0;
  rejections_ = 0;
}

void OptimisticSystem::sample_gauges() {
  std::size_t ready = 0, busy = 0, cached = 0;
  for (const auto& c : clients_) {
    ready += c->exec.queued();
    busy += c->exec.busy();
    cached += c->cache.size();
  }
  tel_.sample("occ.ready_depth", static_cast<double>(ready));
  tel_.sample("occ.busy_slots", static_cast<double>(busy));
  tel_.sample("occ.live_txns", static_cast<double>(live_.size()));
  tel_.sample("cache.occupancy", static_cast<double>(cached));
  tel_.sample("occ.rejections", static_cast<double>(rejections_));
  tel_.sample("server.cpu_util", server_cpu_->utilization());
  tel_.sample("server.disk_util", pf_->disk().utilization());
  tel_.sample("net.util", net_.utilization());
}

void OptimisticSystem::audit_structures() const {
  sim_.validate_invariants();
  pf_->buffer().validate_invariants();
  for (const auto& c : clients_) {
    c->cache.validate_invariants();
    c->exec.validate_invariants();
  }
}

void OptimisticSystem::finalize(RunMetrics& m) {
  for (const auto& c : clients_) {
    m.cache_hits += c->cache.hits();
    m.cache_misses += c->cache.misses();
  }
  m.server_cpu_utilization = server_cpu_->utilization();
  m.server_disk_utilization = pf_->disk().utilization();
  m.occ_validations = validations_;
  m.occ_rejections = rejections_;
}

}  // namespace rtdb::core
